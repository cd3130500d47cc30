//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <steady_dispatch|fleet_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times whole runs from outside the simulator. For each of
//! [`INSTANCES`] seeds derived from `--seed` it generates the workload,
//! builds the simulation through the public constructors, runs it and
//! checks the outputs; it cycles through the instances until
//! `--seconds` have passed after an untimed warm-up run, and reports
//! medians. `--trace 1` makes one traced pass through the wrappers in
//! [`probe`] and reports per-layer counts and self times, next to an
//! untraced run of the same inputs that it must reproduce exactly.
//! Every run is single-shard.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! records the machine, the shard count and per-repetition quartiles.
//! See `perfbench/README.md` for the workloads and the layer map.

mod probe;
mod score;
mod workloads;

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

use hrv_fault::FaultPlan;
use hrv_lb::policy::PolicyKind;
use hrv_platform::shard::run_rounds;
use hrv_platform::tel::FlightRecorder;
use hrv_platform::world::PlatformWorld;
use hrv_platform::{ShardedSimulation, SimOutput};
use hrv_sim::calendar::EventCalendar;
use hrv_trace::rng::SeedFactory;
use hrv_trace::stream::SortedTraceStream;
use hrv_trace::time::SimTime;

use probe::{ProbeCalendar, ProbeLb};
use score::Score;
use workloads::{Inputs, Workload};

/// Independent instances of a workload in one end-to-end run, each
/// generated from its own seed derived from `--seed`. The simulated
/// metrics are medians over them, so a run's figures rest on more than
/// one draw of the application mix and the fleet.
const INSTANCES: usize = 4;
/// Post-warm-up success share below which a workload counts as saturated.
const SUCCESS_FLOOR: f64 = 0.95;
/// Share of traced wall time the layer self times must account for.
const COVERAGE_FLOOR: f64 = 0.70;

/// `Event` kinds reported by name: every kind the workloads can raise.
/// Any other kind (migration, replica reconciliation, fleet sampling,
/// the fault-plan events) still counts towards coverage and is named in
/// the context line's `other_kinds`.
const EVENT_KINDS: [&str; 22] = [
    "Arrival",
    "Deliver",
    "StartupDone",
    "Completion",
    "KeepAliveExpired",
    "Prewarm",
    "PrewarmReady",
    "Ping",
    "PingReport",
    "Report",
    "InvokerDown",
    "VmDeploy",
    "DeployNotice",
    "SpawnVm",
    "WorkLost",
    "VmCpu",
    "VmWarn",
    "VmEvict",
    "Redispatch",
    "HealthSweep",
    "RetryQueue",
    "MonitorTick",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing {k}"));
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = Workload::parse(get("--workload")?)
        .ok_or_else(|| format!("unknown workload; expected one of {names:?}"))?;
    let num = |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|e| format!("{k}: {e}")) };
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    if flags.len() != 4 {
        return Err("expected exactly --workload, --seed, --seconds and --trace".into());
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        traced(args.workload, args.seed)
    } else {
        end_to_end(args.workload, args.seed, Duration::from_secs(args.seconds))
    };
    println!("{}", report.context);
    println!("{}", report.result_line());
    if !report.correct {
        std::process::exit(1);
    }
}

/// What one invocation of the benchmark prints.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    context: String,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_str(name),
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

fn json_list(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", quoted.join(", "))
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// Everything a run's output must reproduce across repetitions and the
/// traced pass.
#[derive(Debug, Clone, PartialEq)]
struct Digest {
    events: u64,
    /// `(replica, placements, envelopes)` per controller replica.
    occupancy: Vec<(u32, u64, u64)>,
    /// FNV-1a over every invocation record.
    records: u64,
    cold_starts: u64,
    warm_starts: u64,
    evictions: u64,
    migrations: u64,
    score: Score,
}

impl Digest {
    fn placements(&self) -> u64 {
        self.occupancy.iter().map(|o| o.1).sum()
    }
}

/// Output checks that failed: distinct messages in the order they were
/// found, and how many failures there were in all.
#[derive(Default)]
struct Checks {
    failures: Vec<String>,
    count: usize,
}

impl Checks {
    fn require(&mut self, result: Result<(), String>) {
        if let Err(why) = result {
            eprintln!("perfbench: check failed: {why}");
            self.count += 1;
            if !self.failures.contains(&why) {
                self.failures.push(why);
            }
        }
    }
}

/// `SimOutput::assert_conservation`, with its panic turned into an error.
fn conservation(out: &SimOutput) -> Result<(), String> {
    std::panic::catch_unwind(AssertUnwindSafe(|| out.assert_conservation())).map_err(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        msg.lines()
            .next()
            .unwrap_or("conservation violated")
            .to_string()
    })
}

/// Checks one run's output and reduces it to its digest.
fn digest(
    w: Workload,
    out: &SimOutput,
    arrivals: &[SimTime],
    warmup: SimTime,
    checks: &mut Checks,
) -> Digest {
    checks.require(conservation(out));
    let c = &out.collector;
    let score = score::score(arrivals, warmup, &c.records);
    checks.require(if score.success_share >= SUCCESS_FLOOR {
        Ok(())
    } else {
        Err(format!(
            "{}: post-warm-up success share {:.4} is below {SUCCESS_FLOOR}: the workload is saturated",
            w.name(),
            score.success_share
        ))
    });
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in &c.records {
        mix(r.id);
        mix(r.arrival.as_micros());
        mix(r.finished.as_micros());
        mix(r.latency_secs.to_bits());
        mix(r.exec_secs.to_bits());
        mix(u64::from(r.cold) | u64::from(r.exec_started) << 1);
        mix(r.outcome as u64);
    }
    Digest {
        events: out.run.events,
        occupancy: c
            .replica_occupancy
            .iter()
            .map(|o| (o.replica, o.placements, o.envelopes))
            .collect(),
        records: h,
        cold_starts: out.cold_starts,
        warm_starts: out.warm_starts,
        evictions: c.vm_evictions,
        migrations: c.migrations,
        score,
    }
}

/// Fails unless `got` reproduces `want` exactly.
fn same(what: &str, want: &Digest, got: &Digest) -> Result<(), String> {
    if want == got {
        Ok(())
    } else {
        Err(format!("{what}: {got:?} differs from {want:?}"))
    }
}

/// Trace arrival time per invocation id (ids are positions in the trace).
fn arrival_index(inputs: &Inputs) -> Vec<SimTime> {
    assert!(
        inputs
            .trace
            .iter()
            .enumerate()
            .all(|(i, inv)| inv.id == i as u64),
        "invocation ids are not trace positions"
    );
    inputs.trace.iter().map(|i| i.arrival).collect()
}

/// One untraced run and what scoring it needs.
struct Run {
    /// Input generation plus construction, seconds.
    setup_s: f64,
    /// Wall time of `ShardedSimulation::run`, seconds.
    wall_s: f64,
    out: SimOutput,
    arrivals: Vec<SimTime>,
    warmup: SimTime,
}

impl Run {
    fn digest(&self, w: Workload, checks: &mut Checks) -> Digest {
        checks.require(w.check_purpose(&self.out));
        digest(w, &self.out, &self.arrivals, self.warmup, checks)
    }
}

/// Generates, builds and runs `w` untraced on one shard.
fn untraced(w: Workload, seed: u64) -> Run {
    let t = Instant::now();
    let inputs = w.generate(seed);
    let generate_s = t.elapsed().as_secs_f64();
    let arrivals = arrival_index(&inputs);
    let (horizon, warmup) = (inputs.horizon, inputs.warmup);
    let t = Instant::now();
    let sim = ShardedSimulation::new(
        inputs.cluster,
        inputs.trace,
        PolicyKind::Mws,
        inputs.cfg,
        seed,
        1,
    );
    let setup_s = generate_s + t.elapsed().as_secs_f64();
    let t = Instant::now();
    let out = sim.run(horizon);
    let wall_s = t.elapsed().as_secs_f64();
    Run {
        setup_s,
        wall_s,
        out,
        arrivals,
        warmup,
    }
}

fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// First quartile, median and third quartile (linear interpolation).
fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (VmHWM), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The seed of instance `i` of a run on `seed`.
fn instance_seed(seed: u64, i: usize) -> u64 {
    SeedFactory::new(seed).seed_for_indexed("instance", i as u64)
}

/// The end-to-end pass: a warm-up run of the first instance, then timed
/// untraced runs of the run's [`INSTANCES`] in turn, until every
/// instance ran and `budget` has passed since the warm-up.
fn end_to_end(w: Workload, seed: u64, budget: Duration) -> Report {
    let mut checks = Checks::default();
    let (mut setups, mut rates, mut failed) = (Vec::new(), Vec::new(), 0u64);
    let mut firsts: Vec<Option<Digest>> = vec![None; INSTANCES];
    let mut peak_rss = 0.0;
    let mut runs = 0u64;
    let mut timed_from = Instant::now();
    while runs == 0 || rates.len() < INSTANCES || timed_from.elapsed() < budget {
        let i = rates.len() % INSTANCES;
        let before = checks.count;
        let run = untraced(w, instance_seed(seed, i));
        let d = run.digest(w, &mut checks);
        eprintln!(
            "perfbench: instance {i}: {} placements in {:.3} s, setup {:.3} s{}",
            d.placements(),
            run.wall_s,
            run.setup_s,
            if runs == 0 {
                " (warm-up, not timed)"
            } else {
                ""
            }
        );
        if runs == 0 {
            // The warm-up grows the heap and fills the caches. Later runs
            // reuse that heap, so only its peak is a steady figure.
            peak_rss = peak_rss_mib();
            timed_from = Instant::now();
        } else {
            setups.push(run.setup_s);
            rates.push(d.placements() as f64 / run.wall_s);
        }
        runs += 1;
        drop(run);
        match &firsts[i] {
            None => firsts[i] = Some(d),
            Some(f) => checks.require(same("a repeated instance", f, &d)),
        }
        failed += u64::from(checks.count > before);
    }
    let scores: Vec<Score> = firsts.into_iter().flatten().map(|d| d.score).collect();
    let sim = |f: fn(&Score) -> f64| scores.iter().map(f).collect::<Vec<f64>>();
    let sims = [
        ("sim_p50_s", sim(|s| s.p50_s), "s"),
        ("sim_p99_s", sim(|s| s.p99_s), "s"),
        ("cold_start_rate", sim(|s| s.cold_start_rate), "ratio"),
        ("success_share", sim(|s| s.success_share), "ratio"),
    ];
    let q = |xs: &[f64]| {
        let (a, b, c) = quartiles(xs);
        format!("[{}, {}, {}]", json_num(a), json_num(b), json_num(c))
    };
    let sim_quartiles: Vec<String> = sims
        .iter()
        .map(|(name, xs, _)| format!("\"{name}\": {}", q(xs)))
        .collect();
    let context = format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"nproc\": {}, \"shards\": 1, \
         \"instances\": {INSTANCES}, \"reps\": {}, \"offered\": {}, \
         \"quartiles\": {{\"placements_per_s\": {}, \"setup_s\": {}, {}}}, \"failures\": {}}}",
        w.name(),
        nproc(),
        rates.len(),
        scores.iter().map(|s| s.offered).sum::<u64>(),
        q(&rates),
        q(&setups),
        sim_quartiles.join(", "),
        json_list(&checks.failures),
    );
    let mut metrics = vec![
        ("placements_per_s".into(), median(&rates), "1/s"),
        ("setup_s".into(), median(&setups), "s"),
        ("peak_rss_mib".into(), peak_rss, "MiB"),
    ];
    metrics.extend(
        sims.iter()
            .map(|(name, xs, unit)| (name.to_string(), median(xs), *unit)),
    );
    Report {
        correct: checks.failures.is_empty(),
        attempted: runs,
        failed,
        context,
        metrics,
    }
}

/// The traced pass: one run through the probes, then the same inputs
/// untraced.
fn traced(w: Workload, seed: u64) -> Report {
    let mut checks = Checks::default();
    // The traced pass and its untraced twin run the first instance.
    let inst = instance_seed(seed, 0);
    probe::reset_lb();
    let t = Instant::now();
    let inputs = w.generate(inst);
    let generate_s = t.elapsed().as_secs_f64();
    let arrivals = arrival_index(&inputs);
    let (horizon, warmup) = (inputs.horizon, inputs.warmup);
    let mut cal = ProbeCalendar::new();
    let t = Instant::now();
    let mut world = PlatformWorld::from_stream_with_faults_in(
        inputs.cluster,
        Box::new(SortedTraceStream::new(inputs.trace)),
        Box::new(ProbeLb::new()),
        inputs.cfg,
        inst,
        FaultPlan::none(),
        &mut cal,
    );
    let build_s = t.elapsed().as_secs_f64();
    cal.reset();
    probe::reset_lb();
    let t = Instant::now();
    let run = run_rounds(&mut world, &mut cal, SimTime::ZERO + horizon, u64::MAX);
    let traced_wall = t.elapsed().as_secs_f64();
    // The tail of `Simulation::run`, through the world's public surface.
    world.censor_remaining(cal.now());
    world.metrics.dropped_completions = world.total_dropped_completions();
    let (spawns, hits, wasted, idle) = (
        world.total_prewarm_spawns(),
        world.total_prewarm_hits(),
        world.total_wasted_prewarms(),
        world.total_idle_mib_secs(),
    );
    world
        .metrics
        .set_coldstart_totals(spawns, hits, wasted, idle);
    world.metrics.canonicalize_records();
    let out = SimOutput {
        cold_starts: world.total_cold_starts(),
        warm_starts: world.total_warm_starts(),
        collector: std::mem::take(&mut world.metrics),
        recorder: FlightRecorder::default(),
        run,
    };
    drop(world);
    let lb = probe::lb_ledger();
    let cal_s = cal.cal_ns as f64 * 1e-9;
    let lb_s = lb.total_ns() as f64 * 1e-9;
    let platform_s: f64 = cal.kinds().map(|k| k.self_ns as f64 * 1e-9).sum();
    let covered_s = cal_s + lb_s + platform_s;
    let residual_s = traced_wall - covered_s;
    let coverage = covered_s / traced_wall;

    // A failed check counts against the run whose output it inspected;
    // an identity check counts against the later of the two runs.
    let mut failed = 0u64;
    let mut before = checks.count;
    let mut tally = |checks: &Checks| {
        failed += u64::from(checks.count > before);
        before = checks.count;
    };
    let traced_digest = digest(w, &out, &arrivals, warmup, &mut checks);
    drop(out);
    checks.require(if coverage >= COVERAGE_FLOOR {
        Ok(())
    } else {
        Err(format!(
            "layer self times cover {coverage:.3} of traced wall time, below the {COVERAGE_FLOOR} floor"
        ))
    });
    tally(&checks);

    let s1 = untraced(w, inst);
    let d1 = s1.digest(w, &mut checks);
    checks.require(same("the traced pass", &d1, &traced_digest));
    tally(&checks);
    let spans = s1.out.recorder.len() as u64 + s1.out.recorder.dropped();
    let wall_s1 = s1.wall_s;
    drop(s1);

    let mut m: Vec<(String, f64, &'static str)> = vec![
        ("trace.generate_s".into(), generate_s, "s"),
        ("platform.build_s".into(), build_s, "s"),
        ("sim.calendar.ops".into(), cal.ops as f64, "count"),
        ("sim.calendar.self_s".into(), cal_s, "s"),
        ("lb.place.calls".into(), lb.place.calls as f64, "count"),
        ("lb.place.self_s".into(), lb.place.secs(), "s"),
        (
            "lb.mws_hit_ratio".into(),
            lb.cache_hits as f64 / (lb.cache_hits + lb.cache_misses).max(1) as f64,
            "ratio",
        ),
        ("lb.observe.calls".into(), lb.observe.calls as f64, "count"),
        ("lb.observe.self_s".into(), lb.observe.secs(), "s"),
        ("lb.join.calls".into(), lb.join.calls as f64, "count"),
        ("lb.join.self_s".into(), lb.join.secs(), "s"),
        ("lb.leave.calls".into(), lb.leave.calls as f64, "count"),
        ("lb.leave.self_s".into(), lb.leave.secs(), "s"),
    ];
    let mut by_name: BTreeMap<&str, (u64, u64)> =
        EVENT_KINDS.iter().map(|&k| (k, (0, 0))).collect();
    let mut other_kinds = Vec::new();
    for k in cal.kinds() {
        match by_name.get_mut(k.name.as_str()) {
            Some(slot) => {
                slot.0 += k.count;
                slot.1 += k.self_ns;
            }
            None => other_kinds.push(k.name.clone()),
        }
    }
    for name in EVENT_KINDS {
        let (count, ns) = by_name[name];
        m.push((format!("platform.{name}.count"), count as f64, "count"));
        m.push((format!("platform.{name}.self_s"), ns as f64 * 1e-9, "s"));
    }
    m.extend([
        ("driver.residual_s".into(), residual_s, "s"),
        ("telemetry.spans".into(), spans as f64, "count"),
        ("traced.wall_s".into(), traced_wall, "s"),
        ("traced.overhead_x".into(), traced_wall / wall_s1, "x"),
        ("traced.coverage".into(), coverage, "ratio"),
    ]);
    let context = format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"nproc\": {}, \"traced_shards\": 1, \
         \"untraced_wall_s\": {}, \"events\": {}, \"placements\": {}, \
         \"other_kinds\": {}, \"failures\": {}}}",
        w.name(),
        nproc(),
        json_num(wall_s1),
        d1.events,
        d1.placements(),
        json_list(&other_kinds),
        json_list(&checks.failures),
    );
    Report {
        correct: checks.failures.is_empty(),
        attempted: 2,
        failed,
        context,
        metrics: m,
    }
}
