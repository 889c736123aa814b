//! The four workloads: how each is set up from a seed, what one pass
//! times, and the checks that its outputs are correct.

use std::time::Instant;

use wormhole_flitsim::config::{Engine, RouteSelection, SimConfig};
use wormhole_flitsim::message::MessageSpec;
use wormhole_flitsim::source::{ReplaySource, TrafficSource};
use wormhole_flitsim::stats::{LatencyStats, Outcome, SimResult};
use wormhole_flitsim::wormhole;
use wormhole_netcalc::{
    delay_bounds, flows_from_specs, BoundConfig, BoundReport, Flow, TraceFlows,
};
use wormhole_topology::adaptive::AdaptiveRouter;
use wormhole_topology::butterfly::Butterfly;
use wormhole_topology::graph::Graph;
use wormhole_topology::region::RegionPlan;
use wormhole_workloads::{
    ArrivalProcess, ClosedLoopConfig, ClosedLoopSource, RoutingDiscipline, Substrate,
    TrafficPattern, Workload,
};

use crate::report::process_cpu_ns;
use crate::trace::{timed, CountingRouter, CountingSource, RouterCounts, SourceCounts, Tracer};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "open-uniform",
    "closed-adaptive",
    "parallel-torus",
    "butterfly-bounds",
];

/// `B` values swept by the open-loop torus batch.
const OPEN_B: [u32; 3] = [1, 2, 4];
/// `B` values swept by both butterfly arms.
pub const BOUND_B: [u32; 4] = [1, 2, 4, 8];
/// Contract rates of the analytic butterfly arm (messages/input/step).
const CONTRACT_RATES: [f64; 2] = [0.002, 0.01];
/// Worker threads of the timed parallel runs. One: on a host of a few
/// shared cores, a second worker's barrier waits time the scheduler more
/// than the engine. The partitioned engine still runs its windows, region
/// queues and merges on one worker.
const PARALLEL_THREADS: u32 = 1;
/// Worker threads of the traced run's scaling measurement, before
/// clamping to the host.
const SCALING_THREADS: u32 = 2;

/// One timed engine call.
pub struct RunRecord {
    pub label: &'static str,
    pub result: SimResult,
    /// Wall time of the call.
    pub ns: u64,
    /// CPU time of the call, over every thread it ran on.
    pub cpu_ns: u64,
    /// Source and router tallies; all zero in an untraced pass.
    pub source: SourceCounts,
    pub router: RouterCounts,
}

impl RunRecord {
    /// Engine self time: the call minus time spent in the callbacks.
    pub fn engine_ns(&self) -> u64 {
        self.ns
            .saturating_sub(self.source.ns + self.router.candidates_ns + self.router.escape_ns)
    }
}

/// One timed `delay_bounds` call.
pub struct BoundRecord {
    pub label: String,
    pub report: BoundReport,
    pub ns: u64,
    pub cpu_ns: u64,
}

/// One execution of a workload's timed calls.
pub struct Pass {
    pub runs: Vec<RunRecord>,
    pub bounds: Vec<BoundRecord>,
    /// Wall time of the whole pass, untimed preparation included.
    pub wall_ns: u64,
}

impl Pass {
    pub fn run_ns(&self) -> u64 {
        self.runs.iter().map(|r| r.ns).sum()
    }

    pub fn bound_ns(&self) -> u64 {
        self.bounds.iter().map(|b| b.ns).sum()
    }

    pub fn run_cpu_ns(&self) -> u64 {
        self.runs.iter().map(|r| r.cpu_ns).sum()
    }

    pub fn bound_cpu_ns(&self) -> u64 {
        self.bounds.iter().map(|b| b.cpu_ns).sum()
    }

    pub fn flit_hops(&self) -> u64 {
        self.runs.iter().map(|r| r.result.flit_hops).sum()
    }
}

/// Setup time by layer, in nanoseconds (zero where a step is absent).
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    pub total: u64,
    /// CPU time of the whole set-up; the others are wall times.
    pub total_cpu: u64,
    pub substrate: u64,
    pub rows: u64,
    pub route: u64,
    pub plan: u64,
    pub flows: u64,
}

/// Counts checks and the ones that failed; failures are reported on
/// stderr as they happen.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// An open-loop batch: fully routed messages with their release steps.
pub struct Batch {
    label: &'static str,
    specs: Vec<MessageSpec>,
}

/// The butterfly contract arm: bit-complement leaky-bucket flows per rate.
pub struct Contract {
    butterfly: Butterfly,
    flows: Vec<(f64, Vec<Flow>)>,
}

/// A workload set up from its seed, ready for repeated passes.
pub enum Bench {
    OpenUniform {
        sub: Substrate,
        batch: Batch,
    },
    ClosedAdaptive {
        sub: Substrate,
        cfg: ClosedLoopConfig,
    },
    ParallelTorus {
        sub: Substrate,
        plan: RegionPlan,
        batches: Vec<Batch>,
        /// Workers of the scaling measurement (not of the timed passes).
        scaling_threads: u32,
    },
    ButterflyBounds {
        contract: Contract,
        sub: Substrate,
        batch: Batch,
        flows: TraceFlows,
    },
}

/// An open-loop workload with Bernoulli arrivals at `rate` messages per
/// endpoint per step and `len`-flit messages.
fn bernoulli(sub: &Substrate, pattern: TrafficPattern, rate: f64, len: u32, seed: u64) -> Workload {
    Workload::new(
        sub.clone(),
        pattern,
        ArrivalProcess::bernoulli(rate),
        len,
        seed,
    )
}

/// Generates a workload's rows and routes them: `Workload::generate`
/// split in its two layers, so each can be timed.
fn open_batch(
    label: &'static str,
    w: &Workload,
    window: u64,
    tracer: &mut Option<&mut Tracer>,
    parent: Option<usize>,
    times: &mut SetupTimes,
) -> Batch {
    let (rows, ns) = timed(tracer, "rows", parent, || w.generate_rows(window));
    times.rows += ns;
    let (specs, ns) = timed(tracer, "route", parent, || {
        rows.iter()
            .map(|r| {
                MessageSpec::new(w.substrate.route(r.src, r.dst), r.length).release_at(r.release)
            })
            .collect()
    });
    times.route += ns;
    Batch { label, specs }
}

impl Bench {
    /// Builds workload `name` from `seed`. Everything here counts as
    /// set-up time; nothing here is timed as a pass.
    pub fn setup(
        name: &str,
        seed: u64,
        nproc: u32,
        mut tracer: Option<&mut Tracer>,
    ) -> Option<(Bench, SetupTimes)> {
        let mut times = SetupTimes::default();
        let start = Instant::now();
        let start_cpu = process_cpu_ns();
        let root = tracer.as_mut().map(|t| t.open("setup", None));
        let tr = &mut tracer;
        let bench = match name {
            "open-uniform" => {
                let (sub, ns) = timed(tr, "substrate", root, || {
                    Substrate::torus_with(16, 2, RoutingDiscipline::DatelineClasses)
                });
                times.substrate = ns;
                let w = bernoulli(&sub, TrafficPattern::UniformRandom, 0.06, 8, seed);
                let batch = open_batch("uniform", &w, 3000, tr, root, &mut times);
                Bench::OpenUniform { sub, batch }
            }
            "closed-adaptive" => {
                let (sub, ns) = timed(tr, "substrate", root, || {
                    Substrate::torus_with(16, 2, RoutingDiscipline::AdaptiveEscape)
                });
                times.substrate = ns;
                let cfg = ClosedLoopConfig {
                    clients: 224,
                    servers: 32,
                    window: 2,
                    req_len: 8,
                    reply_len: 16,
                    think: (1, 16),
                    server_delay: (1, 8),
                    start_spread: 16,
                    horizon: 3000,
                    seed,
                };
                // Building the source schedules every slot's first
                // request; each pass builds its own, untimed.
                let ((), ns) = timed(tr, "source", root, || {
                    drop(ClosedLoopSource::new(&sub, &cfg))
                });
                times.rows = ns;
                Bench::ClosedAdaptive { sub, cfg }
            }
            "parallel-torus" => {
                let (sub, ns) = timed(tr, "substrate", root, || {
                    Substrate::torus_with(32, 2, RoutingDiscipline::DatelineClasses)
                });
                times.substrate = ns;
                let (plan, ns) = timed(tr, "plan", root, || sub.region_plan(8));
                times.plan = ns;
                let batches = [
                    ("tornado", TrafficPattern::Tornado),
                    ("uniform", TrafficPattern::UniformRandom),
                ]
                .into_iter()
                .map(|(label, pattern)| {
                    let w = bernoulli(&sub, pattern, 0.02, 8, seed);
                    open_batch(label, &w, 1500, tr, root, &mut times)
                })
                .collect();
                Bench::ParallelTorus {
                    sub,
                    plan,
                    batches,
                    scaling_threads: SCALING_THREADS.min(nproc),
                }
            }
            "butterfly-bounds" => {
                let (butterfly, ns) = timed(tr, "substrate", root, || Butterfly::new(10));
                times.substrate = ns;
                let (sub, ns) = timed(tr, "substrate", root, || Substrate::butterfly(7));
                times.substrate += ns;
                let (contract_flows, ns) = timed(tr, "flows", root, || {
                    let n = butterfly.n_inputs();
                    CONTRACT_RATES
                        .iter()
                        .map(|&rate| {
                            let flows = (0..n)
                                .map(|s| {
                                    let p = butterfly.greedy_path(s, s ^ (n - 1));
                                    Flow::synthetic(p.edges().to_vec(), 4, 1.0, rate)
                                })
                                .collect();
                            (rate, flows)
                        })
                        .collect()
                });
                times.flows = ns;
                let w = bernoulli(&sub, TrafficPattern::UniformRandom, 0.005, 4, seed);
                let batch = open_batch("trace", &w, 6000, tr, root, &mut times);
                let (flows, ns) = timed(tr, "flows", root, || flows_from_specs(&batch.specs));
                times.flows += ns;
                Bench::ButterflyBounds {
                    contract: Contract {
                        butterfly,
                        flows: contract_flows,
                    },
                    sub,
                    batch,
                    flows,
                }
            }
            _ => return None,
        };
        times.total = start.elapsed().as_nanos() as u64;
        times.total_cpu = process_cpu_ns() - start_cpu;
        if let (Some(t), Some(id)) = (tracer, root) {
            t.close(id);
        }
        Some((bench, times))
    }

    /// Worker threads of the traced run's scaling measurement; 1 on the
    /// workloads that have none. Every timed pass runs on one thread.
    pub fn scaling_threads(&self) -> u32 {
        match self {
            Bench::ParallelTorus {
                scaling_threads, ..
            } => *scaling_threads,
            _ => 1,
        }
    }

    /// Runs every timed call once. With a tracer, the callbacks are
    /// wrapped in counting adapters and each call becomes a span; that is
    /// the only difference between a traced and an untraced pass.
    pub fn pass(&self, mut tracer: Option<&mut Tracer>) -> Pass {
        let start = Instant::now();
        let root = tracer.as_mut().map(|t| t.open("pass", None));
        let tr = &mut tracer;
        let mut runs = Vec::new();
        let mut bounds = Vec::new();
        match self {
            Bench::OpenUniform { sub, batch } => {
                for (b, label) in OPEN_B.iter().zip(["b1", "b2", "b4"]) {
                    let mut source = ReplaySource::new(batch.specs.clone());
                    let cfg = SimConfig::new(*b);
                    runs.push(engine_run(
                        label,
                        tr,
                        root,
                        sub.graph(),
                        None,
                        &mut source,
                        &cfg,
                    ));
                }
            }
            Bench::ClosedAdaptive { sub, cfg } => {
                let mut source = ClosedLoopSource::new(sub, cfg);
                runs.push(engine_run(
                    "b2",
                    tr,
                    root,
                    sub.graph(),
                    Some(mesh(sub)),
                    &mut source,
                    &closed_config(),
                ));
            }
            Bench::ParallelTorus {
                sub, plan, batches, ..
            } => {
                let cfg = parallel_config(plan, PARALLEL_THREADS);
                for batch in batches {
                    let mut source = ReplaySource::new(batch.specs.clone());
                    runs.push(engine_run(
                        batch.label,
                        tr,
                        root,
                        sub.graph(),
                        None,
                        &mut source,
                        &cfg,
                    ));
                }
            }
            Bench::ButterflyBounds {
                contract,
                sub,
                batch,
                flows,
            } => {
                for (rate, cflows) in &contract.flows {
                    for &b in &BOUND_B {
                        let label = format!("contract-r{rate}-b{b}");
                        bounds.push(bound_call(
                            label,
                            b,
                            tr,
                            root,
                            contract.butterfly.graph(),
                            cflows,
                        ));
                    }
                }
                for (&b, label) in BOUND_B.iter().zip(["b1", "b2", "b4", "b8"]) {
                    bounds.push(bound_call(
                        format!("trace-b{b}"),
                        b,
                        tr,
                        root,
                        sub.graph(),
                        &flows.flows,
                    ));
                    let mut source = ReplaySource::new(batch.specs.clone());
                    let cfg = SimConfig::new(b);
                    runs.push(engine_run(
                        label,
                        tr,
                        root,
                        sub.graph(),
                        None,
                        &mut source,
                        &cfg,
                    ));
                }
            }
        }
        if let (Some(t), Some(id)) = (tracer, root) {
            t.close(id);
        }
        Pass {
            runs,
            bounds,
            wall_ns: start.elapsed().as_nanos() as u64,
        }
    }

    /// Wall time of the parallel-torus batches on the event engine and
    /// on the partitioned engine with [`Self::scaling_threads`] workers,
    /// in that order: the two sides of `flitsim.parallel_speedup`. The
    /// multi-worker runs must reproduce the reference pass. `None` on
    /// the other workloads.
    pub fn scaling_ns(&self, reference: &Pass, checks: &mut Checks) -> Option<(u64, u64)> {
        let Bench::ParallelTorus {
            sub,
            plan,
            batches,
            scaling_threads,
        } = self
        else {
            return None;
        };
        let batches_ns = |cfg: &SimConfig, checks: &mut Checks| -> u64 {
            batches
                .iter()
                .zip(&reference.runs)
                .map(|(batch, r)| {
                    let mut source = ReplaySource::new(batch.specs.clone());
                    let run = engine_run(
                        batch.label,
                        &mut None,
                        None,
                        sub.graph(),
                        None,
                        &mut source,
                        cfg,
                    );
                    check_same(r, &run.result, "one-worker", checks);
                    run.ns
                })
                .sum()
        };
        let event = batches_ns(&SimConfig::new(4), checks);
        let scaled = batches_ns(&parallel_config(plan, *scaling_threads), checks);
        Some((event, scaled))
    }

    /// Certified bound over simulated maximum latency on the butterfly
    /// trace arm, per `B` of [`BOUND_B`]; 0 where uncertified, and on the
    /// other workloads.
    pub fn bound_slack(&self, pass: &Pass) -> [f64; 4] {
        let mut slack = [0.0; 4];
        let Bench::ButterflyBounds { batch, .. } = self else {
            return slack;
        };
        let trace_bounds = pass.bounds.iter().filter(|b| b.label.starts_with("trace"));
        for ((s, run), bound) in slack.iter_mut().zip(&pass.runs).zip(trace_bounds) {
            let sim_max = batch
                .specs
                .iter()
                .zip(&run.result.messages)
                .filter_map(|(spec, m)| m.latency(spec.release))
                .max()
                .unwrap_or(0);
            if bound.report.bounded && sim_max > 0 {
                *s = bound.report.max_delay() / sim_max as f64;
            }
        }
        slack
    }

    /// The once-per-invocation checks against the oracle engine and the
    /// model's references. Returns the simulated-time outputs, one line
    /// per engine call, for the record.
    pub fn oracle_checks(&self, reference: &Pass, checks: &mut Checks) -> Vec<String> {
        let mut model = Vec::new();
        match self {
            Bench::OpenUniform { sub, batch } => {
                for (run, b) in reference.runs.iter().zip(OPEN_B) {
                    let oracle = wormhole::run(
                        sub.graph(),
                        &batch.specs,
                        &SimConfig::new(b).engine(Engine::Legacy),
                    );
                    check_batch_run(run, &oracle, &batch.specs, checks);
                    model.push(model_line(run, &batch.specs));
                }
            }
            Bench::ClosedAdaptive { sub, cfg } => {
                let run = &reference.runs[0];
                let mut inner = ClosedLoopSource::new(sub, cfg);
                let mut source = RecordingSource {
                    inner: &mut inner,
                    specs: Vec::new(),
                };
                let oracle = wormhole::run_source_adaptive(
                    mesh(sub),
                    &mut source,
                    &closed_config().engine(Engine::Legacy),
                );
                let specs = source.specs;
                check_same(run, &oracle, "legacy", checks);
                check_completed(run, checks);
                check_floors(run, &specs, checks);
                let stats = inner.stats(oracle.total_steps);
                checks.check(stats.chains_completed == stats.requests_issued, || {
                    format!(
                        "closed loop: {} chains completed of {} issued",
                        stats.chains_completed, stats.requests_issued
                    )
                });
                model.push(model_line(run, &specs));
            }
            Bench::ParallelTorus { sub, batches, .. } => {
                for (run, batch) in reference.runs.iter().zip(batches) {
                    let oracle = wormhole::run(sub.graph(), &batch.specs, &SimConfig::new(4));
                    check_batch_run(run, &oracle, &batch.specs, checks);
                    model.push(model_line(run, &batch.specs));
                }
            }
            Bench::ButterflyBounds {
                sub, batch, flows, ..
            } => {
                let trace_bounds: Vec<&BoundRecord> = reference
                    .bounds
                    .iter()
                    .filter(|b| b.label.starts_with("trace"))
                    .collect();
                for ((run, bound), b) in reference.runs.iter().zip(&trace_bounds).zip(BOUND_B) {
                    let oracle = wormhole::run(
                        sub.graph(),
                        &batch.specs,
                        &SimConfig::new(b).engine(Engine::Legacy),
                    );
                    check_batch_run(run, &oracle, &batch.specs, checks);
                    let over = batch
                        .specs
                        .iter()
                        .zip(&run.result.messages)
                        .enumerate()
                        .filter(|(i, (spec, m))| {
                            m.latency(spec.release).is_none_or(|lat| {
                                lat as f64 > bound.report.flow_delay[flows.spec_flow[*i]]
                            })
                        })
                        .count();
                    checks.check(over == 0, || {
                        format!(
                            "{}: {over} messages exceed their certified bound",
                            run.label
                        )
                    });
                    model.push(format!(
                        "{}, certified max bound {:.1}",
                        model_line(run, &batch.specs),
                        bound.report.max_delay()
                    ));
                }
                // More VCs never weaken a certificate (per arm and rate).
                for arm in reference.bounds.chunks(BOUND_B.len()) {
                    let monotone = arm.windows(2).all(|w| {
                        w[1].report.max_delay() <= w[0].report.max_delay()
                            && (w[1].report.bounded || !w[0].report.bounded)
                    });
                    checks.check(monotone, || {
                        format!("{}: certified bounds grow with B", arm[0].label)
                    });
                }
                for bound in &reference.bounds {
                    model.push(format!(
                        "{}: certified {}, max bound {:.1}, {} iterations",
                        bound.label,
                        bound.report.bounded,
                        bound.report.max_delay(),
                        bound.report.iterations
                    ));
                }
            }
        }
        model
    }
}

/// Configuration of the closed-loop run: fully adaptive with a misroute
/// budget of 2, two VCs.
fn closed_config() -> SimConfig {
    SimConfig::new(2)
        .route_selection(RouteSelection::FullyAdaptive)
        .misroute_quota(2)
}

/// Configuration of the parallel-torus runs on `threads` workers.
fn parallel_config(plan: &RegionPlan, threads: u32) -> SimConfig {
    SimConfig::new(4)
        .engine(Engine::Parallel { threads })
        .regions(plan.clone())
}

fn mesh(sub: &Substrate) -> &dyn AdaptiveRouter {
    sub.as_mesh()
        .expect("the adaptive workload runs on a torus")
}

/// One engine call, timed; with a tracer, through the counting adapters
/// and inside a span.
fn engine_run(
    label: &'static str,
    tracer: &mut Option<&mut Tracer>,
    parent: Option<usize>,
    graph: &Graph,
    router: Option<&dyn AdaptiveRouter>,
    source: &mut dyn TrafficSource,
    cfg: &SimConfig,
) -> RunRecord {
    let call = |source: &mut dyn TrafficSource, router: Option<&dyn AdaptiveRouter>| match router {
        Some(r) => wormhole::run_source_adaptive(r, source, cfg),
        None => wormhole::run_source(graph, source, cfg),
    };
    let start_cpu = process_cpu_ns();
    match tracer {
        None => {
            let start = Instant::now();
            let result = call(source, router);
            RunRecord {
                label,
                result,
                ns: start.elapsed().as_nanos() as u64,
                cpu_ns: process_cpu_ns() - start_cpu,
                source: SourceCounts::default(),
                router: RouterCounts::default(),
            }
        }
        Some(t) => {
            let mut counted = CountingSource::new(source);
            let counting_router = router.map(CountingRouter::new);
            let id = t.open(format!("run:{label}"), parent);
            let result = call(
                &mut counted,
                counting_router.as_ref().map(|r| r as &dyn AdaptiveRouter),
            );
            let ns = t.close(id);
            RunRecord {
                label,
                result,
                ns,
                cpu_ns: process_cpu_ns() - start_cpu,
                source: counted.counts,
                router: counting_router.map(|r| r.counts()).unwrap_or_default(),
            }
        }
    }
}

/// One `delay_bounds` call, timed (and a span when tracing).
fn bound_call(
    label: String,
    b: u32,
    tracer: &mut Option<&mut Tracer>,
    parent: Option<usize>,
    graph: &Graph,
    flows: &[Flow],
) -> BoundRecord {
    let start_cpu = process_cpu_ns();
    let (report, ns) = timed(tracer, &format!("bound:{label}"), parent, || {
        delay_bounds(graph, flows, &BoundConfig::new(b))
            .expect("butterfly routing sets are feedforward")
    });
    BoundRecord {
        label,
        report,
        ns,
        cpu_ns: process_cpu_ns() - start_cpu,
    }
}

/// Checks that a pass computed exactly what the reference pass did, and
/// that no parallel run fell back to a sequential engine.
pub fn check_same_pass(reference: &Pass, pass: &Pass, what: &str, checks: &mut Checks) {
    for (r, p) in reference.runs.iter().zip(&pass.runs) {
        check_same(r, &p.result, what, checks);
        checks.check(p.result.engine_fallback.is_none(), || {
            format!(
                "{}: engine fell back: {:?}",
                p.label, p.result.engine_fallback
            )
        });
    }
    for (r, p) in reference.bounds.iter().zip(&pass.bounds) {
        let same = r.report.bounded == p.report.bounded
            && r.report.iterations == p.report.iterations
            && r.report.flow_delay == p.report.flow_delay;
        checks.check(same, || format!("{}: {what} bound differs", p.label));
    }
}

fn check_same(run: &RunRecord, other: &SimResult, what: &str, checks: &mut Checks) {
    checks.check(run.result.same_execution(other), || {
        format!("{}: result differs from the {what} run", run.label)
    });
}

fn check_completed(run: &RunRecord, checks: &mut Checks) {
    checks.check(run.result.outcome == Outcome::Completed, || {
        format!("{}: outcome {:?}", run.label, run.result.outcome)
    });
}

/// Oracle checks shared by the oblivious batches: equality with the
/// oracle engine, completion, the unblocked latency floor, and flit
/// conservation (every flit crosses every edge of its route once).
fn check_batch_run(
    run: &RunRecord,
    oracle: &SimResult,
    specs: &[MessageSpec],
    checks: &mut Checks,
) {
    check_same(run, oracle, "oracle", checks);
    check_completed(run, checks);
    check_floors(run, specs, checks);
    let hops: u64 = specs
        .iter()
        .map(|s| s.length as u64 * s.hops() as u64)
        .sum();
    checks.check(run.result.flit_hops == hops, || {
        format!(
            "{}: {} flit hops, routes need {hops}",
            run.label, run.result.flit_hops
        )
    });
}

/// Every message is delivered no sooner than its unblocked time
/// `D + L − 1` after release (`D` from the message's oblivious route,
/// which is minimal, so adaptive routes can only be longer).
fn check_floors(run: &RunRecord, specs: &[MessageSpec], checks: &mut Checks) {
    let messages = &run.result.messages;
    let early = messages
        .iter()
        .zip(specs)
        .filter(|(m, s)| {
            m.latency(s.release)
                .is_none_or(|lat| lat < s.unblocked_time())
        })
        .count();
    checks.check(messages.len() == specs.len() && early == 0, || {
        format!(
            "{}: {early} of {} messages undelivered or faster than D + L - 1",
            run.label,
            messages.len()
        )
    });
}

/// The simulated-time outputs of one run, in flit steps.
fn model_line(run: &RunRecord, specs: &[MessageSpec]) -> String {
    let r = &run.result;
    let delivered: Vec<(u64, u32)> = r
        .messages
        .iter()
        .zip(specs)
        .filter_map(|(m, s)| m.latency(s.release).map(|lat| (lat, s.length)))
        .collect();
    let latencies: Vec<u64> = delivered.iter().map(|d| d.0).collect();
    let flits: u64 = delivered.iter().map(|d| d.1 as u64).sum();
    let lat = LatencyStats::from_samples(&latencies);
    format!(
        "{}: {} messages, makespan {} steps, latency p50 {} p99 {} max {} steps, {} stalls, {:.4} accepted flits/step",
        run.label,
        r.messages.len(),
        r.total_steps,
        lat.p50,
        lat.p99,
        lat.max,
        r.total_stalls,
        flits as f64 / r.total_steps.max(1) as f64
    )
}

/// Keeps every message the closed loop emits (its ids are dense and
/// ascending), so its results can be checked like a batch's.
struct RecordingSource<'a> {
    inner: &'a mut dyn TrafficSource,
    specs: Vec<MessageSpec>,
}

impl TrafficSource for RecordingSource<'_> {
    fn next_release(&mut self, now: u64) -> Option<u64> {
        self.inner.next_release(now)
    }

    fn take_ready(&mut self, now: u64, out: &mut Vec<(u32, MessageSpec)>) {
        let from = out.len();
        self.inner.take_ready(now, out);
        for (id, spec) in &out[from..] {
            assert_eq!(*id as usize, self.specs.len(), "closed-loop ids are dense");
            self.specs.push(spec.clone());
        }
    }

    fn on_delivered(&mut self, id: u32, finished: u64) {
        self.inner.on_delivered(id, finished)
    }

    fn on_discarded(&mut self, id: u32, t: u64) {
        self.inner.on_discarded(id, t)
    }

    fn reactive(&self) -> bool {
        self.inner.reactive()
    }

    fn id_bound(&self) -> Option<u32> {
        self.inner.id_bound()
    }
}
