//! Outside-in benchmark of the gateway-fronted service stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload apply|lookup|store_kv --seed N --seconds S --trace 0|1
//! ```
//!
//! It stands up one deployment of the real stack over loopback TCP
//! (see [`deploy`]), pinned with its load generator to one CPU, and
//! drives one traffic mix through it in a closed loop from two client
//! threads. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are end to end; with `--trace 1` they are per layer,
//! taken from the benchmark's own spans around the program's entry
//! points. State lives under `.bench_run/` and is removed at exit; a
//! traced run leaves its spans in `.bench_out/<workload>.spans.tsv`.
//!
//! End-to-end times read as on a reference host (see [`HostProbe`]): a
//! probe between the windows of a run measures how fast the shared host
//! runs, and each window's times are scaled by it. The probe runs no
//! program code and counts only its own threads' CPU time, so whatever
//! the program runs meanwhile, in the foreground or the background,
//! shows in full while the host's drift cancels. The p99 is the median
//! of the p99s of runs of windows (see [`TAIL_SAMPLES`]).

mod deploy;
mod inputs;
mod load;
mod stats;
mod sys;
mod trace;

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use deploy::Deployment;
use inputs::Stream;
use load::{Loader, Workload};
use sys::ProcCounters;
use trace::{Kind, SpanRec};

/// Set-ups per run: the live deployment's, then trials once it has
/// stopped. Set-up metrics are their medians.
const SETUP_TRIALS: u64 = 9;
/// Equal windows an untraced run's operations are cut into.
const WINDOWS: u64 = 24;
/// The reported p99 is the median of the p99s of runs of consecutive
/// windows, each run the fewest windows (a divisor of [`WINDOWS`]) that
/// hold this many operations. The tail drifts with the shared host from
/// second to second; many short runs of windows steady it.
const TAIL_SAMPLES: u64 = 1_100;
/// Operations run before measuring, to fill pools and the gateway's
/// latency samples (hedging arms after eight).
const WARMUP_OPS: u64 = 400;
/// Loopback round trips per host-speed probe (some 20 ms).
const PROBE_ROUND_TRIPS: u32 = 2_000;
/// Rounds of the compute kernel per host-speed probe (some 20 ms).
const PROBE_COMPUTE_ROUNDS: u32 = 80;
/// The reference host's probe figures, µs of CPU: a loopback round trip
/// and a round of the compute kernel. End-to-end times are reported as
/// they would read on a host this fast. The figures only fix the unit;
/// they are typical of the probe on a 2-vCPU Xeon VM.
const REFERENCE_RTT_CPU_US: f64 = 8.0;
const REFERENCE_COMPUTE_US: f64 = 200.0;
/// A traced run interleaves this many rounds of untraced, traced and
/// unsampled chunks, rotating their order.
const TRACE_ROUNDS: u64 = 3;

/// Operations per second of `--seconds`. The work in a run is fixed,
/// not timed, so a faster build does the same work and keeps the same
/// state; at the rates of this stack on one core a run lasts about
/// `--seconds`.
fn ops_per_second(w: Workload) -> u64 {
    match w {
        Workload::Apply => 1_500,
        Workload::Lookup => 3_500,
        Workload::StoreKv => 360,
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    prepare: Option<PathBuf>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args { workload: None, seed: 1, seconds: 10, trace: false, prepare: None };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    args.workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
                }
                "--seed" => args.seed = value.parse().map_err(bad)?,
                "--seconds" => args.seconds = value.parse().map_err(bad)?,
                "--trace" => args.trace = value.parse::<u8>().map_err(bad)? != 0,
                "--prepare" => args.prepare = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(args)
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("e2ebench: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    // Before any thread starts, so every thread inherits the one CPU.
    let cpu = sys::pin_to_one_cpu().map_err(|e| format!("pin to one CPU: {e}"))?;
    let args = Args::parse(std::env::args().skip(1))?;
    if let Some(dir) = &args.prepare {
        return deploy::prepare(dir, args.seed);
    }
    let w = args.workload.ok_or("--workload is required")?;
    eprintln!("e2ebench: {} seed {} pinned to CPU {cpu}", w.name(), args.seed);
    let run_dir = RunDir::create(w)?;
    let ops = args.seconds.max(1) * ops_per_second(w);
    let (metrics, attempted, failed, correct) = bench(w, &args, &run_dir.0, ops)?;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}

/// The run's state directory, removed when the run ends.
struct RunDir(PathBuf);

impl RunDir {
    fn create(w: Workload) -> Result<RunDir, String> {
        let dir = Path::new(".bench_run").join(format!("{}-{}", w.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_run");
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// How fast the host runs now, by the CPU time of two fixed tasks that
/// run no program code: a loopback round trip between two threads (the
/// kernel side of a request) and a user-space compute kernel. Other
/// tenants of a shared host can double this CPU's time per operation
/// for minutes at a time; the CPU time of these tasks moves with it,
/// while threads of the program running beside them do not add to it.
#[derive(Clone, Copy)]
struct HostProbe {
    rtt_cpu_us: f64,
    compute_us: f64,
}

/// Which of the probe's tasks a time is scaled by. The host's drift
/// hits kernel and user code unevenly, so a workload follows the task
/// in the CPU mode where it spends most of its time (`proc.sys_share`
/// of a traced run: about 0.65 for `apply` and `lookup`, 0.3 for
/// `store_kv`). Set-up, the same for every workload, follows both.
#[derive(Clone, Copy)]
enum Scale {
    Kernel,
    User,
    Both,
}

impl Scale {
    fn of(w: Workload) -> Scale {
        match w {
            Workload::Apply | Workload::Lookup => Scale::Kernel,
            Workload::StoreKv => Scale::User,
        }
    }
}

impl HostProbe {
    fn measure() -> Result<HostProbe, String> {
        let rtt =
            sys::loopback_rtt_cpu(PROBE_ROUND_TRIPS).map_err(|e| format!("loopback probe: {e}"))?;
        let compute = sys::compute_cpu(PROBE_COMPUTE_ROUNDS);
        Ok(HostProbe {
            rtt_cpu_us: rtt.as_secs_f64() * 1e6,
            compute_us: compute.as_secs_f64() * 1e6,
        })
    }

    /// The host's speed relative to the reference host: the reference
    /// CPU time over the measured one, for both tasks their geometric
    /// mean.
    fn speed(&self, scale: Scale) -> f64 {
        let kernel = REFERENCE_RTT_CPU_US / self.rtt_cpu_us;
        let user = REFERENCE_COMPUTE_US / self.compute_us;
        match scale {
            Scale::Kernel => kernel,
            Scale::User => user,
            Scale::Both => (kernel * user).sqrt(),
        }
    }
}

fn host_speed(w: Workload) -> Result<f64, String> {
    HostProbe::measure().map(|p| p.speed(Scale::of(w)))
}

/// One set-up: start time split, seconds, and the host probe just
/// before it.
struct Setup {
    probe: HostProbe,
    total_s: f64,
    ledger_recover_s: f64,
    store_recover_s: f64,
    first_op_s: f64,
}

/// Start a deployment from the journals in `dir` and run its first
/// successful operation: the set-up a user waits for.
fn start(
    w: Workload,
    seed: u64,
    dir: &Path,
    trial: u64,
) -> Result<(Deployment, Vec<Loader>, Setup), String> {
    let probe = HostProbe::measure()?;
    let t0 = Instant::now();
    let (dep, times) = Deployment::start(dir, seed)?;
    let mut loaders: Vec<Loader> = (0..load::THREADS).map(|t| Loader::new(&dep, t, seed)).collect();
    let t1 = Instant::now();
    let mut attempt = 0;
    while let Err(e) = loaders[0].run_op(w, Stream::Setup, trial * 1_000 + attempt) {
        attempt += 1;
        if attempt == 100 {
            return Err(format!("no successful first operation: {e}"));
        }
    }
    let setup = Setup {
        probe,
        total_s: t0.elapsed().as_secs_f64(),
        ledger_recover_s: times.ledger_recover_s,
        store_recover_s: times.store_recover_s,
        first_op_s: t1.elapsed().as_secs_f64(),
    };
    Ok((dep, loaders, setup))
}

/// A set-up on the template journals, torn down at once. Each trial
/// appends at most its first operation to the template.
fn setup_trial(w: Workload, seed: u64, template: &Path, trial: u64) -> Result<Setup, String> {
    let (dep, loaders, setup) = start(w, seed, template, trial)?;
    drop(loaders);
    dep.stop();
    Ok(setup)
}

fn bench(
    w: Workload,
    args: &Args,
    dir: &Path,
    ops: u64,
) -> Result<(Metrics, u64, u64, bool), String> {
    // The journals are written by a child process, so their writer's
    // memory stays out of this process's peak RSS.
    let template = dir.join("template");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = std::process::Command::new(exe)
        .arg("--prepare")
        .arg(&template)
        .args(["--seed", &args.seed.to_string()])
        .status()
        .map_err(|e| format!("start journal writer: {e}"))?;
    if !status.success() {
        return Err(format!("journal writer failed: {status}"));
    }
    let live = dir.join("live");
    deploy::copy_tree(&template, &live).map_err(|e| format!("copy journals: {e}"))?;

    let (dep, mut loaders, first) = start(w, args.seed, &live, 0)?;
    let mut setups = vec![first];
    let warm = load::run_phase(&mut loaders, w, Stream::Warmup, 0, WARMUP_OPS);
    let mut failed = warm.failed;
    let mut first_error = warm.first_error;

    let mut metrics: Metrics = Vec::new();
    let attempted;
    if !args.trace {
        // Every time measured in a window is scaled to the reference
        // host by the host's speed around it.
        let window = ops / WINDOWS;
        let mut speed_before = host_speed(w)?;
        let per_group = (1..=WINDOWS)
            .find(|d| WINDOWS.is_multiple_of(*d) && d * window >= TAIL_SAMPLES)
            .unwrap_or(WINDOWS);
        let mut groups = vec![Vec::new(); (WINDOWS / per_group) as usize];
        let mut ref_elapsed_s = 0.0;
        for c in 0..WINDOWS {
            let phase = load::run_phase(&mut loaders, w, Stream::Measured, c * window, window);
            failed += phase.failed;
            first_error = first_error.or(phase.first_error);
            let speed_after = host_speed(w)?;
            let speed = (speed_before + speed_after) / 2.0;
            speed_before = speed_after;
            ref_elapsed_s += phase.elapsed.as_secs_f64() * speed;
            let group = &mut groups[(c / per_group) as usize];
            group.extend(phase.latencies.iter().map(|&ns| ns as f64 * speed));
        }
        attempted = WINDOWS * window;
        let mut tails = Vec::new();
        for group in &mut groups {
            group.sort_by(f64::total_cmp);
            tails.push(stats::percentile(group, 0.99).ok_or("too few samples beyond p99")?);
        }
        let mut lat = groups.concat();
        lat.sort_by(f64::total_cmp);
        let p50 = stats::percentile(&lat, 0.50).ok_or("too few samples for p50")?;
        let p99 = stats::median(&tails);
        metrics.push(("throughput_ops_s", attempted as f64 / ref_elapsed_s, "ops/s"));
        metrics.push(("p50_us", p50 / 1e3, "us"));
        metrics.push(("p99_us", p99 / 1e3, "us"));
        // Before any set-up trial: the peak of one live deployment.
        metrics.push(("peak_rss_mib", sys::peak_rss_mib(), "MiB"));
    } else {
        let traced = traced_phases(w, &dep, &mut loaders, ops)?;
        failed += traced.failed;
        first_error = first_error.or(traced.first_error.clone());
        attempted = traced.ops;
        let spans = trace::drain();
        write_spans(w, &spans);
        let layers = attribute(&spans);
        if layers.broken_ops > 0 {
            first_error.get_or_insert(format!("{} traced ops do not partition", layers.broken_ops));
            failed += layers.broken_ops;
        }
        metrics = layer_metrics(w, &traced, &layers);
    }

    let invariants = load::check_invariants(&dep, &loaders);
    drop(loaders);
    dep.stop();
    // The trials run once the live deployment is gone, so no two
    // deployments ever share the process.
    while (setups.len() as u64) < SETUP_TRIALS {
        setups.push(setup_trial(w, args.seed, &template, setups.len() as u64)?);
    }
    if !args.trace {
        metrics.push((
            "setup_s",
            median_of(&setups, |s| s.total_s * s.probe.speed(Scale::Both)),
            "s",
        ));
    } else {
        metrics.push(("setup.ledger_recover_s", median_of(&setups, |s| s.ledger_recover_s), "s"));
        metrics.push(("setup.store_recover_s", median_of(&setups, |s| s.store_recover_s), "s"));
        metrics.push(("setup.first_op_s", median_of(&setups, |s| s.first_op_s), "s"));
        // Per-layer times are as measured; these say how fast the host ran.
        metrics.push(("host.rtt_cpu_us", median_of(&setups, |s| s.probe.rtt_cpu_us), "us"));
        metrics.push(("host.compute_cpu_us", median_of(&setups, |s| s.probe.compute_us), "us"));
    }
    if let Err(e) = &invariants {
        eprintln!("e2ebench: invariant violated: {e}");
    }
    if let Some(e) = &first_error {
        eprintln!("e2ebench: {failed} failed operations; first: {e}");
    }
    Ok((metrics, attempted, failed, failed == 0 && invariants.is_ok()))
}

fn median_of(setups: &[Setup], f: fn(&Setup) -> f64) -> f64 {
    stats::median(&setups.iter().map(f).collect::<Vec<_>>())
}

/// Program counters the per-layer metrics take deltas of.
#[derive(Clone, Copy, Default)]
struct Counters {
    pool_opened: u64,
    pool_reused: u64,
    gw_admitted: u64,
    gw_requests: u64,
    gw_hedges_launched: u64,
    gw_hedges_won: u64,
    gw_shed: u64,
    wal_appends: u64,
    wal_commits: u64,
    wal_fsyncs: u64,
    pushes: u64,
    push_failures: u64,
}

impl Counters {
    fn read(dep: &Deployment, loaders: &[Loader]) -> Counters {
        let mut c = Counters::default();
        for pool in
            loaders.iter().map(|l| l.http.pool_stats()).chain([dep.gateway_client.pool_stats()])
        {
            c.pool_opened += pool.opened;
            c.pool_reused += pool.reused;
        }
        let gw = dep.gateway.stats();
        let get = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed);
        c.gw_admitted = get(&gw.admitted);
        c.gw_hedges_launched = get(&gw.hedges_launched);
        c.gw_hedges_won = get(&gw.hedges_won);
        c.gw_shed = gw.shed_total();
        c.gw_requests = gw.upstream_names().iter().map(|n| get(&gw.upstream(n).requests)).sum();
        let m = soc_observe::metrics();
        c.wal_appends = m.counter("soc_store_wal_appends_total", &[]).get();
        c.wal_commits = m.histogram("soc_store_wal_commit_batch", &[]).count();
        c.wal_fsyncs = m.counter("soc_store_wal_fsyncs_total", &[]).get();
        c.pushes = m.counter("soc_store_replication_pushes_total", &[]).get();
        c.push_failures = m.counter("soc_store_replication_failures_total", &[]).get();
        c
    }
}

/// Operations, wall time scaled to the reference host, and process
/// counters of one kind of chunk.
#[derive(Default)]
struct Mode {
    ops: u64,
    ref_elapsed_s: f64,
    proc: ProcCounters,
}

impl Mode {
    fn throughput(&self) -> f64 {
        self.ops as f64 / self.ref_elapsed_s
    }
}

struct Traced {
    ops: u64,
    failed: u64,
    first_error: Option<String>,
    /// Untraced at head sampling 1.0, traced, and untraced at 0.0.
    untraced: Mode,
    traced: Mode,
    unsampled: Mode,
    before: Counters,
    after: Counters,
}

/// Run `ops` operations in interleaved chunks: untraced, traced, and
/// untraced with the program's head sampling at 0.0.
fn traced_phases(
    w: Workload,
    dep: &Deployment,
    loaders: &mut [Loader],
    ops: u64,
) -> Result<Traced, String> {
    let chunk = ops / (3 * TRACE_ROUNDS);
    let before = Counters::read(dep, loaders);
    let mut t = Traced {
        ops: 0,
        failed: 0,
        first_error: None,
        untraced: Mode::default(),
        traced: Mode::default(),
        unsampled: Mode::default(),
        before,
        after: before,
    };
    let mut speed_before = host_speed(w)?;
    for round in 0..TRACE_ROUNDS {
        // Each round starts with another kind, so no kind always runs
        // first or last.
        for which in (0..3).map(|k| (k + round) % 3) {
            soc_observe::set_sample_rate(if which == 2 { 0.0 } else { 1.0 });
            trace::set_enabled(which == 1);
            let start = ProcCounters::now();
            let phase = load::run_phase(loaders, w, Stream::Measured, t.ops, chunk);
            let used = ProcCounters::now().since(start);
            trace::set_enabled(false);
            let speed_after = host_speed(w)?;
            let mode = match which {
                0 => &mut t.untraced,
                1 => &mut t.traced,
                _ => &mut t.unsampled,
            };
            mode.ops += chunk;
            mode.ref_elapsed_s += phase.elapsed.as_secs_f64() * (speed_before + speed_after) / 2.0;
            speed_before = speed_after;
            mode.proc = mode.proc.add(used);
            t.ops += chunk;
            t.failed += phase.failed;
            t.first_error = t.first_error.take().or(phase.first_error);
        }
    }
    soc_observe::set_sample_rate(1.0);
    t.after = Counters::read(dep, loaders);
    Ok(t)
}

/// Per-op sums over the traced operations.
#[derive(Default)]
struct Layers {
    ops: u64,
    broken_ops: u64,
    self_ns: HashMap<Kind, u64>,
    put_ns: u64,
    get_ns: u64,
    gets: u64,
    fallthrough_gets: u64,
}

/// Attribute each traced operation's time to its layers.
fn attribute(spans: &[SpanRec]) -> Layers {
    let mut by_op: HashMap<u64, Vec<SpanRec>> = HashMap::new();
    for s in spans {
        by_op.entry(s.op).or_default().push(*s);
    }
    let mut l = Layers::default();
    for group in by_op.values() {
        let root = group.iter().find(|s| s.parent == 0);
        let times = trace::self_times(group);
        let (Some(root), Some(times)) = (root, times) else {
            l.broken_ops += 1;
            continue;
        };
        if times.values().sum::<u64>() != root.end - root.start {
            l.broken_ops += 1;
            continue;
        }
        l.ops += 1;
        for s in group {
            *l.self_ns.entry(s.kind).or_default() += times[&s.id];
            match s.kind {
                Kind::StorePut => l.put_ns += s.end - s.start,
                Kind::StoreGet => {
                    l.get_ns += s.end - s.start;
                    l.gets += 1;
                    let tries = group.iter().filter(|c| c.parent == s.id).count();
                    l.fallthrough_gets += u64::from(tries > 1);
                }
                _ => {}
            }
        }
    }
    l
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn layer_metrics(w: Workload, t: &Traced, l: &Layers) -> Metrics {
    let per_op_us = |kinds: &[Kind]| {
        let ns: u64 = kinds.iter().map(|k| l.self_ns.get(k).copied().unwrap_or(0)).sum();
        ratio(ns as f64, l.ops as f64) / 1e3
    };
    let (b, a) = (&t.before, &t.after);
    let d = |f: fn(&Counters) -> u64| (f(a) - f(b)) as f64;
    let ops = t.ops as f64;
    let admitted = d(|c| c.gw_admitted);
    let puts = if w == Workload::StoreKv { ops } else { 0.0 };
    let u = &t.untraced;
    let cpu = u.proc.user + u.proc.sys;
    vec![
        ("http.front_self_us", per_op_us(&[Kind::ClientSend]), "us"),
        ("http.upstream_self_us", per_op_us(&[Kind::GatewaySend]), "us"),
        (
            "http.conn_reuse_ratio",
            ratio(d(|c| c.pool_reused), d(|c| c.pool_opened) + d(|c| c.pool_reused)),
            "ratio",
        ),
        ("proc.csw_per_op", ratio(u.proc.csw as f64, u.ops as f64), "count"),
        ("proc.cpu_us_per_op", ratio(cpu.as_secs_f64() * 1e6, u.ops as f64), "us"),
        ("proc.sys_share", ratio(u.proc.sys.as_secs_f64(), cpu.as_secs_f64()), "ratio"),
        ("gateway.self_us", per_op_us(&[Kind::Gateway]), "us"),
        (
            "gateway.attempts_per_req",
            ratio(d(|c| c.gw_requests) - d(|c| c.gw_hedges_launched), admitted),
            "count",
        ),
        (
            "gateway.hedges_launched_per_1k",
            1e3 * ratio(d(|c| c.gw_hedges_launched), admitted),
            "count",
        ),
        ("gateway.hedges_won_per_1k", 1e3 * ratio(d(|c| c.gw_hedges_won), admitted), "count"),
        ("gateway.shed_total", a.gw_shed as f64, "count"),
        ("rest.score_us", per_op_us(&[Kind::RestScore]), "us"),
        ("rest.apply_us", per_op_us(&[Kind::RestApply]), "us"),
        ("soap.client_self_us", per_op_us(&[Kind::SoapCall]), "us"),
        ("soap.service_us", per_op_us(&[Kind::Soap]), "us"),
        ("wal.appends_per_op", ratio(d(|c| c.wal_appends), ops), "count"),
        ("wal.records_per_commit", ratio(d(|c| c.wal_appends), d(|c| c.wal_commits)), "count"),
        ("wal.fsyncs_per_op", ratio(d(|c| c.wal_fsyncs), ops), "count"),
        ("store.put_us", ratio(l.put_ns as f64, l.ops as f64) / 1e3, "us"),
        ("store.get_us", ratio(l.get_ns as f64, l.ops as f64) / 1e3, "us"),
        ("store.node_self_us", per_op_us(&[Kind::Node]), "us"),
        ("store.push_us", per_op_us(&[Kind::Push]), "us"),
        ("store.pushes_per_put", ratio(d(|c| c.pushes), puts), "count"),
        ("store.push_failures", d(|c| c.push_failures), "count"),
        (
            "store.replica_fallthrough_ratio",
            ratio(l.fallthrough_gets as f64, l.gets as f64),
            "ratio",
        ),
        ("observe.trace_overhead", 1.0 - ratio(t.traced.throughput(), u.throughput()), "ratio"),
        (
            "observe.head_sampling_cost",
            1.0 - ratio(u.throughput(), t.unsampled.throughput()),
            "ratio",
        ),
    ]
}

/// Leave the traced run's spans in `.bench_out/<workload>.spans.tsv`.
fn write_spans(w: Workload, spans: &[SpanRec]) {
    let dir = Path::new(".bench_out");
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let file = std::fs::File::create(dir.join(format!("{}.spans.tsv", w.name())))?;
        let mut out = std::io::BufWriter::new(file);
        writeln!(out, "op\tid\tparent\tkind\tstart_ns\tend_ns")?;
        for s in spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{:?}\t{}\t{}",
                s.op, s.id, s.parent, s.kind, s.start, s.end
            )?;
        }
        out.flush()
    };
    if let Err(e) = write() {
        eprintln!("e2ebench: could not write spans: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_speed_is_reference_over_measured_time() {
        let at = |rtt_cpu_us, compute_us| HostProbe { rtt_cpu_us, compute_us };
        let reference = at(REFERENCE_RTT_CPU_US, REFERENCE_COMPUTE_US);
        for scale in [Scale::Kernel, Scale::User, Scale::Both] {
            assert!((reference.speed(scale) - 1.0).abs() < 1e-12);
        }
        let slow_kernel = at(2.0 * REFERENCE_RTT_CPU_US, REFERENCE_COMPUTE_US);
        assert!((slow_kernel.speed(Scale::Kernel) - 0.5).abs() < 1e-12);
        assert!((slow_kernel.speed(Scale::User) - 1.0).abs() < 1e-12);
        assert!((slow_kernel.speed(Scale::Both) - 0.5f64.sqrt()).abs() < 1e-12);
    }
}
