//! The repository benchmark: host time per simulated flit and per
//! certified bound, on four workloads, with a separate traced pass that
//! breaks the time down by crate. See `README.md` beside this package.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The line before it is the run's record (host facts, sample counts,
//! every timing summary); simulated-time outputs precede it as
//! `model:` lines.

mod bench;
mod report;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use bench::{check_same_pass, Bench, Checks, Pass, SetupTimes, BOUND_B, WORKLOADS};
use report::{json_str, median, summary_json, tail, Metrics, TAIL_BEYOND};
use trace::Tracer;

/// Set-ups per run at least; `setup_s` is their median. Spans cover
/// the first `SETUP_REPEATS`.
const SETUP_REPEATS: usize = 7;
/// Share of the run's wall time spent setting up. The set-ups are spread
/// over the whole run, between passes: a shared host's speed changes every
/// few seconds, and set-ups made in one burst would all sample one state.
const SETUP_SHARE: f64 = 0.07;
/// Timed passes per untraced run at least, so the tail has samples
/// beyond it.
const MIN_PASSES: usize = 2 * TAIL_BEYOND + 1;
/// Traced passes per traced run at least (per-layer metrics are medians).
const MIN_TRACED_PASSES: usize = 5;
/// Engine-call labels broken out in `flitsim.engine_ms.<label>`.
const RUN_LABELS: [&str; 6] = ["b1", "b2", "b4", "b8", "tornado", "uniform"];

struct Args {
    workload: String,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(20),
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .and_then(|s| Duration::try_from_secs_f64(s).ok())
                    .ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; one of {}",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = report::nproc();
    let mut tracer = Tracer::new();
    let mut checks = Checks::default();

    let run_start = Instant::now();
    let mut setups = Setups {
        args: &args,
        nproc,
        times: Vec::new(),
        wall_ns: 0,
    };
    let bench = setups.once(&mut tracer);

    // The warm-up pass is the reference every later pass must reproduce.
    // Peak memory is read after it: set-up plus one pass is what running
    // the workload once holds; later passes only add allocator churn.
    let reference = bench.pass(None);
    let rss = report::peak_rss_mib().expect("the kernel reports VmHWM");
    let start = Instant::now();
    let min_passes = if args.trace {
        MIN_TRACED_PASSES
    } else {
        MIN_PASSES
    };
    let more = |n: usize| n < min_passes || start.elapsed() < args.seconds;

    let mut record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"nproc\": {nproc}, \"threads\": 1, \"scaling_threads\": {}, \"commit\": {}",
        json_str(&args.workload),
        args.seed,
        args.trace as u8,
        bench.scaling_threads(),
        json_str(&report::commit()),
    );
    let mut metrics = Metrics::default();

    if !args.trace {
        let (mut pass_ms, mut run_ms, mut bound_ms) = (Vec::new(), Vec::new(), Vec::new());
        let mut wall_pass_ms = Vec::new();
        while more(pass_ms.len()) {
            let p = bench.pass(None);
            check_same_pass(&reference, &p, "reference", &mut checks);
            run_ms.push(p.run_cpu_ns() as f64 / 1e6);
            bound_ms.push(p.bound_cpu_ns() as f64 / 1e6);
            pass_ms.push((p.run_cpu_ns() + p.bound_cpu_ns()) as f64 / 1e6);
            wall_pass_ms.push((p.run_ns() + p.bound_ns()) as f64 / 1e6);
            drop(p);
            setups.catch_up(&mut tracer, run_start);
        }
        setups.finish(&mut tracer);
        let model = bench.oracle_checks(&reference, &mut checks);
        for line in &model {
            println!("model: {line}");
        }
        let (pass_tail, _) = tail(&pass_ms).expect("MIN_PASSES leaves samples beyond the tail");
        // Only the tail is gated. A shared host switches between a fast and
        // a slow state, for seconds and at times for minutes, and the
        // share of each in a run sets its median and mean; the slow state
        // shows up in nearly every run, so the tail holds still. The
        // median, the mean and the throughput stay in the record.
        metrics.put("pass_ms_tail", pass_tail, "ms");
        metrics.put("setup_s", setups.median_ms(|s| s.total_cpu) / 1e3, "s");
        metrics.put("peak_rss_mib", rss, "MiB");
        // Every pass repeats the reference's flit hops: total hops over
        // total seconds in the engine calls.
        let flit_hops_per_s = (reference.flit_hops() * run_ms.len() as u64) as f64
            / (run_ms.iter().sum::<f64>() / 1e3);
        let pass_ms_mean = pass_ms.iter().sum::<f64>() / pass_ms.len() as f64;
        record += &format!(
            ", \"flit_hops_per_s\": {flit_hops_per_s}, \"pass_ms_mean\": {pass_ms_mean}, \"pass_ms\": {}, \"run_ms\": {}, \"wall_pass_ms\": {}, \"setup_ms\": {}, \"wall_setup_ms\": {}",
            summary_json(&pass_ms),
            summary_json(&run_ms),
            summary_json(&wall_pass_ms),
            summary_json(&setups.ms(|s| s.total_cpu)),
            summary_json(&setups.ms(|s| s.total)),
        );
        if !reference.bounds.is_empty() {
            record += &format!(", \"bound_ms\": {}", summary_json(&bound_ms));
        }
    } else {
        let mut untraced_ms = Vec::new();
        let mut traced_ms = Vec::new();
        let (mut event_ms, mut scaled_ms) = (Vec::new(), Vec::new());
        let mut layers: Vec<Vec<(String, f64, &'static str)>> = Vec::new();
        let mut first_counts = None;
        while more(traced_ms.len()) {
            let u = bench.pass(None);
            check_same_pass(&reference, &u, "reference", &mut checks);
            untraced_ms.push((u.run_ns() + u.bound_ns()) as f64 / 1e6);
            drop(u);
            let t = bench.pass(Some(&mut tracer));
            check_same_pass(&reference, &t, "untraced", &mut checks);
            check_identities(&t, &mut first_counts, &mut checks);
            traced_ms.push((t.run_ns() + t.bound_ns()) as f64 / 1e6);
            layers.push(layer_values(&bench, &t));
            if let Some((event, scaled)) = bench.scaling_ns(&reference, &mut checks) {
                event_ms.push(event as f64 / 1e6);
                scaled_ms.push(scaled as f64 / 1e6);
            }
            setups.catch_up(&mut tracer, run_start);
        }
        setups.finish(&mut tracer);
        let model = bench.oracle_checks(&reference, &mut checks);
        for line in &model {
            println!("model: {line}");
        }
        metrics.put("workloads.rows_ms", setups.median_ms(|s| s.rows), "ms");
        metrics.put("workloads.route_ms", setups.median_ms(|s| s.route), "ms");
        metrics.put(
            "topology.substrate_ms",
            setups.median_ms(|s| s.substrate),
            "ms",
        );
        metrics.put(
            "topology.region_plan_ms",
            setups.median_ms(|s| s.plan),
            "ms",
        );
        metrics.put("netcalc.flows_ms", setups.median_ms(|s| s.flows), "ms");
        for (i, (name, _, unit)) in layers[0].iter().enumerate() {
            let values: Vec<f64> = layers.iter().map(|l| l[i].1).collect();
            metrics.put(name.clone(), median(&values), unit);
        }
        let (event, scaled) = if event_ms.is_empty() {
            (0.0, 0.0)
        } else {
            (median(&event_ms), median(&scaled_ms))
        };
        metrics.put("flitsim.event_oracle_ms", event, "ms");
        metrics.put("flitsim.parallel_2t_ms", scaled, "ms");
        let speedup = if scaled > 0.0 { event / scaled } else { 0.0 };
        metrics.put("flitsim.parallel_speedup", speedup, "ratio");
        metrics.put(
            "bench.trace_overhead",
            median(&traced_ms) / median(&untraced_ms),
            "ratio",
        );
        record += &format!(
            ", \"untraced_pass_ms\": {}, \"traced_pass_ms\": {}",
            summary_json(&untraced_ms),
            summary_json(&traced_ms)
        );
        let path = format!(
            "perfbench/out/spans-{}-seed{}.json",
            args.workload, args.seed
        );
        match write_spans(&tracer, &path) {
            Ok(()) => record += &format!(", \"spans\": {}", json_str(&path)),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }

    let failed_ratio = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!(
        "{record}, \"setups\": {}, \"failed_ratio\": {failed_ratio}}}",
        setups.times.len()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        metrics.json()
    );
    ExitCode::SUCCESS
}

/// The workload's set-ups: the first builds the bench every pass uses;
/// the others are timed and dropped.
struct Setups<'a> {
    args: &'a Args,
    nproc: u32,
    times: Vec<SetupTimes>,
    /// Wall time of every set-up so far.
    wall_ns: u64,
}

impl Setups<'_> {
    fn once(&mut self, tracer: &mut Tracer) -> Bench {
        let traced = (self.args.trace && self.times.len() < SETUP_REPEATS).then_some(tracer);
        let (bench, times) = Bench::setup(&self.args.workload, self.args.seed, self.nproc, traced)
            .expect("workload name was validated");
        self.wall_ns += times.total;
        self.times.push(times);
        bench
    }

    /// Sets up again until set-ups fill [`SETUP_SHARE`] of the time since
    /// `run_start`.
    fn catch_up(&mut self, tracer: &mut Tracer, run_start: Instant) {
        while (self.wall_ns as f64) < SETUP_SHARE * run_start.elapsed().as_nanos() as f64 {
            self.once(tracer);
        }
    }

    /// Sets up again until there are at least [`SETUP_REPEATS`] set-ups.
    fn finish(&mut self, tracer: &mut Tracer) {
        while self.times.len() < SETUP_REPEATS {
            self.once(tracer);
        }
    }

    fn ms(&self, f: fn(&SetupTimes) -> u64) -> Vec<f64> {
        self.times.iter().map(|s| f(s) as f64 / 1e6).collect()
    }

    fn median_ms(&self, f: fn(&SetupTimes) -> u64) -> f64 {
        median(&self.ms(f))
    }
}

/// Per-layer values of one traced pass, in a fixed order.
fn layer_values(bench: &Bench, p: &Pass) -> Vec<(String, f64, &'static str)> {
    let sum = |f: &dyn Fn(&bench::RunRecord) -> u64| p.runs.iter().map(f).sum::<u64>() as f64;
    let ms = 1e-6;
    let engine_ns = sum(&|r| r.engine_ns());
    let flit_hops = sum(&|r| r.result.flit_hops);
    let steps = sum(&|r| r.result.total_steps);
    let bound_ns = p.bound_ns() as f64;
    let iterations = p
        .bounds
        .iter()
        .map(|b| b.report.iterations as u64)
        .sum::<u64>() as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut v: Vec<(String, f64, &'static str)> = vec![
        (
            "workloads.source_calls".into(),
            sum(&|r| r.source.calls()),
            "count",
        ),
        (
            "workloads.source_ms".into(),
            sum(&|r| r.source.ns) * ms,
            "ms",
        ),
        (
            "topology.candidates_calls".into(),
            sum(&|r| r.router.candidates),
            "count",
        ),
        (
            "topology.candidates_ms".into(),
            sum(&|r| r.router.candidates_ns) * ms,
            "ms",
        ),
        (
            "topology.escape_calls".into(),
            sum(&|r| r.router.escape),
            "count",
        ),
        (
            "topology.escape_ms".into(),
            sum(&|r| r.router.escape_ns) * ms,
            "ms",
        ),
        ("flitsim.engine_ms".into(), engine_ns * ms, "ms"),
    ];
    for label in RUN_LABELS {
        let ns: u64 = p
            .runs
            .iter()
            .filter(|r| r.label == label)
            .map(|r| r.engine_ns())
            .sum();
        v.push((format!("flitsim.engine_ms.{label}"), ns as f64 * ms, "ms"));
    }
    v.extend([
        (
            "flitsim.ns_per_flit_hop".into(),
            ratio(engine_ns, flit_hops),
            "ns",
        ),
        ("flitsim.flit_hops".into(), flit_hops, "count"),
        ("flitsim.total_steps".into(), steps, "count"),
        (
            "flitsim.stalls".into(),
            sum(&|r| r.result.total_stalls),
            "count",
        ),
        (
            "flitsim.messages".into(),
            sum(&|r| r.result.messages.len() as u64),
            "count",
        ),
        (
            "flitsim.escape_fallbacks".into(),
            sum(&|r| r.result.escape_fallbacks),
            "count",
        ),
        (
            "flitsim.misroute_hops".into(),
            sum(&|r| r.result.misroute_hops),
            "count",
        ),
        (
            "flitsim.polled_step_ratio".into(),
            ratio(sum(&|r| r.source.take_ready), steps),
            "ratio",
        ),
        ("netcalc.bound_ms".into(), bound_ns * ms, "ms"),
        ("netcalc.iterations".into(), iterations, "count"),
        (
            "netcalc.ms_per_iteration".into(),
            ratio(bound_ns * ms, iterations),
            "ms",
        ),
        (
            "netcalc.certified_ratio".into(),
            ratio(
                p.bounds.iter().filter(|b| b.report.bounded).count() as f64,
                p.bounds.len() as f64,
            ),
            "ratio",
        ),
    ]);
    let slack = bench.bound_slack(p);
    for (b, s) in BOUND_B.iter().zip(slack) {
        v.push((format!("netcalc.bound_slack.b{b}"), s, "ratio"));
    }
    v
}

/// Counter identities of a traced pass: the source is polled at most
/// once per simulated step (plus the final poll), the layers' self times
/// fit in the pass, and every count repeats exactly across passes.
fn check_identities(p: &Pass, first: &mut Option<Vec<[u64; 5]>>, checks: &mut Checks) {
    for r in &p.runs {
        checks.check(r.source.take_ready <= r.result.total_steps + 1, || {
            format!(
                "{}: {} polls for {} steps",
                r.label, r.source.take_ready, r.result.total_steps
            )
        });
    }
    let self_ns: u64 = p
        .runs
        .iter()
        .map(|r| r.engine_ns() + r.source.ns + r.router.candidates_ns + r.router.escape_ns)
        .sum::<u64>()
        + p.bound_ns();
    checks.check(self_ns <= p.wall_ns, || {
        format!(
            "layer self times {self_ns} ns exceed the pass's {} ns",
            p.wall_ns
        )
    });
    let counts: Vec<_> = p
        .runs
        .iter()
        .map(|r| {
            [
                r.source.next_release,
                r.source.take_ready,
                r.source.notifications,
                r.router.candidates,
                r.router.escape,
            ]
        })
        .collect();
    match first {
        None => *first = Some(counts),
        Some(f) => checks.check(*f == counts, || {
            "callback counts differ between traced passes".into()
        }),
    }
}

fn write_spans(tracer: &Tracer, path: &str) -> std::io::Result<()> {
    let path = std::path::Path::new(path);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    tracer.write_json(&mut out)?;
    std::io::Write::flush(&mut out)
}
