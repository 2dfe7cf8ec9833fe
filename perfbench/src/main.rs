//! One benchmark for the PrivShape workspace.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! generates the workload's inputs from the seed, checks the workload once
//! against a single-threaded serial twin, then repeats it on fresh sessions
//! for `--seconds` and prints one JSON object as its last line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `perfbench/README.md`.

mod calib;
mod facade;
mod host;
mod service;
mod tenant;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use tenant::{serial_twin, Outcome, Tenant, TwinRun};
use trace::{SpanId, Trace};

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A workload: tenants generated from the seed, and one timed repetition.
pub trait Workload {
    fn tenants(&self) -> &[Tenant];
    /// Reports per sealed frame (the twin sizes its uploads with it).
    fn frame_reports(&self) -> usize;
    /// Uses the serial twins' runs to finish set-up (untimed).
    fn calibrate(&mut self, twins: &[TwinRun]) -> Res<()>;
    /// Runs the workload once on fresh sessions.
    fn sample(&self, trace: Trace) -> Res<Sample>;
}

/// One repetition of a workload.
pub struct Sample {
    pub setup_s: f64,
    pub extract_s: f64,
    /// Reports accepted into the sessions' aggregates.
    pub accepted: u64,
    /// Users that uploaded a report, and the sealed bytes they uploaded.
    pub answering_users: u64,
    pub upload_bytes: u64,
    /// Users enrolled across every session.
    pub users: u64,
    /// Routed frames plus round transitions, and how many of them failed
    /// (built-in probes and faults included).
    pub ops: u64,
    pub failures: u64,
    /// One per tenant, in tenant order.
    pub outcomes: Vec<Outcome>,
    /// Counts that must repeat exactly in every sample of a run.
    pub exact: BTreeMap<&'static str, u64>,
    /// Counts that depend on thread timing.
    pub loose: BTreeMap<&'static str, f64>,
    pub trace: Trace,
    pub root: SpanId,
    /// Wall time of the reference kernel run just before the sample.
    pub reference_s: f64,
}

impl Sample {
    pub fn new(setup_s: f64, extract_s: f64, trace: Trace, root: SpanId) -> Self {
        Self {
            setup_s,
            extract_s,
            accepted: 0,
            answering_users: 0,
            upload_bytes: 0,
            users: 0,
            ops: 0,
            failures: 0,
            outcomes: Vec::new(),
            exact: BTreeMap::new(),
            loose: BTreeMap::new(),
            trace,
            root,
            reference_s: 0.0,
        }
    }
}

/// A reported metric: its name, unit and which direction is better.
struct Metric {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

const END_TO_END: [Metric; 7] = [
    m("setup_s", "s", "lower"),
    m("extract_s", "s", "lower"),
    m("reports_per_s", "reports/s", "higher"),
    m("peak_rss_mb", "MB", "lower"),
    m("upload_bytes_per_user", "bytes", "lower"),
    m("shape_dtw", "dtw", "lower"),
    m("failed_frac", "ratio", "lower"),
];

const PER_LAYER: [Metric; 54] = [
    m("client.enroll.busy_s", "s", "lower"),
    m("client.enroll.ns_per_user", "ns", "lower"),
    m("client.answer.busy_s", "s", "lower"),
    m("client.answer.length.ns_per_report", "ns", "lower"),
    m("client.answer.subshape.ns_per_report", "ns", "lower"),
    m("client.answer.expand.ns_per_report", "ns", "lower"),
    m("client.answer.refine.ns_per_report", "ns", "lower"),
    m("client.addressed_ratio", "ratio", "higher"),
    m("distance.rows", "count", "lower"),
    m("distance.ns_per_row", "ns", "lower"),
    m("fleet.answer.busy_s", "s", "lower"),
    m("fleet.answer.ns_per_report", "ns", "lower"),
    m("fleet.answer.expand.ns_per_report", "ns", "lower"),
    m("fleet.answer.refine.ns_per_report", "ns", "lower"),
    m("session.next_round.busy_s", "s", "lower"),
    m("session.submit_shard.busy_s", "s", "lower"),
    m("session.finish.busy_s", "s", "lower"),
    m("trie.levels", "count", "lower"),
    m("trie.candidates_total", "count", "lower"),
    m("wire.seal.busy_s", "s", "lower"),
    m("wire.seal.ns_per_report", "ns", "lower"),
    m("wire.bytes_per_report", "bytes", "lower"),
    m("registry.route.busy_s", "s", "lower"),
    m("registry.route.ns_per_frame", "ns", "lower"),
    m("ingest.accepted_reports", "count", "higher"),
    m("ingest.rejected_frames", "count", "lower"),
    m("ingest.duplicate_reports", "count", "lower"),
    m("ingest.accept_ratio", "ratio", "higher"),
    m("ingest.queue_high_water", "count", "lower"),
    m("ingest.backpressure_stalls", "count", "lower"),
    m("registry.close.busy_s", "s", "lower"),
    m("registry.close.ms_p50", "ms", "lower"),
    m("registry.close.ms_max", "ms", "lower"),
    m("registry.begin.busy_s", "s", "lower"),
    m("registry.begin.final.busy_s", "s", "lower"),
    m("registry.finish.busy_s", "s", "lower"),
    m("rounds", "count", "lower"),
    m("snapshot.busy_s", "s", "lower"),
    m("snapshot.bytes", "bytes", "lower"),
    m("restore.busy_s", "s", "lower"),
    m("supervisor.begin.busy_s", "s", "lower"),
    m("supervisor.route.busy_s", "s", "lower"),
    m("supervisor.close.busy_s", "s", "lower"),
    m("supervisor.recovery_s", "s", "lower"),
    m("supervisor.recoveries", "count", "lower"),
    m("supervisor.redriven_frames", "count", "lower"),
    m("supervisor.checkpoint_fallbacks", "count", "lower"),
    m("trace.extract_s", "s", "lower"),
    m("trace.blocking_s", "s", "lower"),
    m("trace.residual_s", "s", "lower"),
    m("trace.overhead_frac", "ratio", "lower"),
    m("trace.samples", "count", "higher"),
    m("twin.wall_s", "s", "lower"),
    m("host.reference_s", "s", "lower"),
];

const WORKLOADS: [&str; 3] = ["facade-deep", "service-mix", "supervised-recovery"];

/// Samples taken at least, whatever `--seconds` says (per arm when traced).
const MIN_SAMPLES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Users per session, overriding the workload's (reduced-scale runs).
    users: Option<usize>,
}

fn parse_args() -> Res<Args> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut users) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse()?),
            "--seconds" => seconds = Some(value.parse::<f64>()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--users" => users = Some(value.parse::<usize>()?),
            _ => return Err(format!("unknown flag {flag}").into()),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}").into());
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    if users == Some(0) {
        return Err("--users must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        users,
    })
}

fn main() {
    // Injected worker panics are part of the supervised workload; keep
    // them off stderr, report every other panic as usual.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.starts_with("chaos: injected") {
            default_hook(info);
        }
    }));
    let code = match parse_args().and_then(run) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Seed of the fixed population `shape_dtw` is measured on.
const REFERENCE_SEED: u64 = 2023;

fn build(name: &str, seed: u64, users: Option<usize>, threads: usize) -> Box<dyn Workload> {
    match name {
        "facade-deep" => Box::new(facade::FacadeDeep::new(seed, users, threads)),
        "service-mix" => Box::new(service::Wire::service_mix(seed, users, threads)),
        _ => Box::new(service::Wire::supervised(seed, users, threads)),
    }
}

fn run(args: Args) -> Res<bool> {
    let fingerprint = host::Fingerprint::detect();
    let threads = nproc();

    // Extraction quality is measured on one fixed population per workload:
    // at this scale it moves with the privacy noise of each seed by more
    // than any bound, while on a fixed population it moves only when the
    // code does.
    let reference = build(&args.workload, REFERENCE_SEED, args.users, threads);
    let mut dtw = 0.0;
    for tenant in reference.tenants() {
        let twin = serial_twin(tenant, reference.frame_reports())?;
        dtw += twin.outcome.dtw(&tenant.ground_truth()?);
    }
    let shape_dtw = dtw / reference.tenants().len() as f64;
    drop(reference);

    let generating = Instant::now();
    let mut workload = build(&args.workload, args.seed, args.users, threads);
    let generate_s = generating.elapsed().as_secs_f64();

    // Correctness reference: every tenant once, serially, untimed.
    let twin_started = Instant::now();
    let twins = workload
        .tenants()
        .iter()
        .map(|t| serial_twin(t, workload.frame_reports()))
        .collect::<Res<Vec<_>>>()?;
    let twin_s = twin_started.elapsed().as_secs_f64();
    let twin_wall: f64 = twins.iter().map(|t| t.wall_s).sum();
    workload.calibrate(&twins)?;

    let mut problems: Vec<String> = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    // Sample 0 warms the allocator and caches up; it is checked, not timed.
    let min = 1 + if args.trace {
        2 * MIN_SAMPLES
    } else {
        MIN_SAMPLES
    };
    let sampling = Instant::now();
    while samples.len() < min || sampling.elapsed() < budget {
        let traced = args.trace && !samples.is_empty() && samples.len().is_multiple_of(2);
        let reference_s = calib::reference_s(threads);
        let mut sample = workload.sample(Trace::new(traced))?;
        sample.reference_s = reference_s;
        for (name, v) in [
            ("ops", sample.ops),
            ("failures", sample.failures),
            ("upload_bytes", sample.upload_bytes),
            ("answering_users", sample.answering_users),
            ("accepted_reports", sample.accepted),
        ] {
            sample.exact.insert(name, v);
        }
        for (i, (got, twin)) in sample.outcomes.iter().zip(&twins).enumerate() {
            if !got.same_as(&twin.outcome) {
                problems.push(format!(
                    "sample {}: tenant {} ({}) differs from its serial twin",
                    samples.len(),
                    i,
                    workload.tenants()[i].spec.name
                ));
            }
        }
        if sample.outcomes.len() != twins.len() {
            problems.push(format!("sample {}: missing outcomes", samples.len()));
        }
        if let Some(first) = samples.first() {
            for (name, v) in &sample.exact {
                if first.exact.get(name) != Some(v) {
                    problems.push(format!(
                        "sample {}: count {name} drifted ({:?} then {v})",
                        samples.len(),
                        first.exact.get(name)
                    ));
                }
            }
        }
        samples.push(sample);
    }

    let untraced: Vec<&Sample> = samples[1..].iter().filter(|s| !s.trace.on()).collect();
    let traced: Vec<&Sample> = samples.iter().filter(|s| s.trace.on()).collect();
    let first = &samples[0];
    let rss_mb = peak_rss_kb()? as f64 / 1024.0;

    // Timings are medians over the untraced samples, normalized by the
    // host's speed during the run: scaled by the reference kernel's nominal
    // time over its median time in the run (see `calib`).
    let reference_s = median(untraced.iter().map(|s| s.reference_s));
    let speed = calib::REFERENCE_S / reference_s;
    let setup_wall = median(untraced.iter().map(|s| s.setup_s));
    let extract_wall = median(untraced.iter().map(|s| s.extract_s));
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    values.insert("setup_s", setup_wall * speed);
    values.insert("extract_s", extract_wall * speed);
    values.insert(
        "reports_per_s",
        median(untraced.iter().map(|s| s.accepted as f64 / s.extract_s)) / speed,
    );
    values.insert("peak_rss_mb", rss_mb);
    values.insert(
        "upload_bytes_per_user",
        first.upload_bytes as f64 / first.answering_users.max(1) as f64,
    );
    values.insert("shape_dtw", shape_dtw);
    values.insert(
        "failed_frac",
        first.failures as f64 / first.ops.max(1) as f64,
    );

    if args.trace {
        let per_sample: Vec<BTreeMap<&'static str, f64>> =
            traced.iter().map(|s| layer_metrics(s)).collect();
        for metric in &PER_LAYER {
            let v = median(
                per_sample
                    .iter()
                    .map(|m| m.get(metric.name).copied().unwrap_or(0.0)),
            );
            values.insert(metric.name, v);
        }
        let overhead = median(traced.iter().map(|s| s.extract_s))
            / median(untraced.iter().map(|s| s.extract_s))
            - 1.0;
        values.insert("trace.overhead_frac", overhead);
        values.insert("trace.samples", traced.len() as f64);
        values.insert("twin.wall_s", twin_wall);
        values.insert("host.reference_s", reference_s);
    }

    let reported: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for metric in reported {
        if !values.get(metric.name).is_some_and(|v| v.is_finite()) {
            problems.push(format!("metric {} is not a finite number", metric.name));
        }
    }
    let correct = problems.is_empty();
    let attempted: u64 = samples.iter().map(|s| s.ops).sum();

    // Human-readable summary, then the result file, then the result line.
    let mut text = String::new();
    let _ = writeln!(
        text,
        "perfbench {} seed {} trace {}: {} samples ({} traced), host {} ({} cpus, target-cpu {}, simd {})",
        args.workload,
        args.seed,
        u8::from(args.trace),
        samples.len(),
        traced.len(),
        fingerprint.id(),
        fingerprint.nproc,
        fingerprint.target_cpu,
        if fingerprint.simd { "on" } else { "off" },
    );
    let _ = writeln!(
        text,
        "inputs generated in {generate_s:.2}s; serial twin {twin_wall:.3}s single-threaded \
         ({twin_s:.2}s with upload sizing); users {}",
        first.users
    );
    let _ = writeln!(
        text,
        "timings are medians of {} untraced samples at reference speed: wall setup {setup_wall:.6}s \
         and extract {extract_wall:.6}s times {speed:.4} (reference kernel {reference_s:.6}s, nominal {}s)",
        untraced.len(),
        calib::REFERENCE_S
    );
    for metric in &END_TO_END {
        let _ = writeln!(
            text,
            "  {:<24} {:>14.6} {}",
            metric.name, values[metric.name], metric.unit
        );
    }
    if let Some(s) = traced.iter().min_by(|a, b| {
        (a.extract_s - values["trace.extract_s"])
            .abs()
            .total_cmp(&(b.extract_s - values["trace.extract_s"]).abs())
    }) {
        text.push_str(&layer_table(s));
    }
    for p in &problems {
        let _ = writeln!(text, "PROBLEM: {p}");
    }
    print!("{text}");

    write_results(
        &args,
        &fingerprint,
        &samples,
        &values,
        reported,
        twin_wall,
        correct,
        &problems,
    )?;

    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        attempted.max(1),
        if correct { 0 } else { problems.len() }
    );
    for (i, metric) in reported.iter().enumerate() {
        let v = values
            .get(metric.name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        let _ = write!(
            line,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            metric.name,
            number(v),
            metric.unit
        );
    }
    line.push_str("}}");
    println!("{line}");
    Ok(correct)
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn number(v: f64) -> String {
    // `+ 0.0` turns the `-0.0` of an empty float sum into `0.0`.
    let s = format!("{}", v + 0.0);
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), in kB.
fn peak_rss_kb() -> Res<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()?)
}

/// The per-layer metrics of one traced sample.
fn layer_metrics(s: &Sample) -> BTreeMap<&'static str, f64> {
    let layers = s.trace.layers();
    let busy = |names: &[&str]| -> f64 {
        names
            .iter()
            .filter_map(|n| layers.get(n))
            .map(|t| t.self_s)
            .sum()
    };
    let work = |names: &[&str]| -> u64 {
        names
            .iter()
            .filter_map(|n| layers.get(n))
            .map(|t| t.work)
            .sum()
    };
    let ns_per = |names: &[&str]| -> f64 { ratio(busy(names) * 1e9, work(names) as f64) };
    let exact = |name: &str| s.exact.get(name).copied().unwrap_or(0) as f64;
    let answer = [
        "client.answer.length",
        "client.answer.subshape",
        "client.answer.expand",
        "client.answer.refine",
    ];
    let fleet = [
        "fleet.answer.length",
        "fleet.answer.subshape",
        "fleet.answer.expand",
        "fleet.answer.refine",
    ];
    let scoring = [
        "client.answer.expand",
        "client.answer.refine",
        "fleet.answer.expand",
        "fleet.answer.refine",
    ];
    let mut close_ms: Vec<f64> = s
        .trace
        .durations("registry.close")
        .iter()
        .map(|d| d * 1e3)
        .collect();
    close_ms.sort_by(f64::total_cmp);
    let (extract, blocking) = s.trace.blocking_path(s.root).unwrap_or((0.0, 0.0));

    let mut out = BTreeMap::new();
    out.insert("client.enroll.busy_s", busy(&["client.enroll"]));
    out.insert(
        "client.enroll.ns_per_user",
        ratio(busy(&["client.enroll"]) * 1e9, s.users as f64),
    );
    out.insert("client.answer.busy_s", busy(&answer));
    out.insert("client.answer.length.ns_per_report", ns_per(&answer[..1]));
    out.insert(
        "client.answer.subshape.ns_per_report",
        ns_per(&answer[1..2]),
    );
    out.insert("client.answer.expand.ns_per_report", ns_per(&answer[2..3]));
    out.insert("client.answer.refine.ns_per_report", ns_per(&answer[3..]));
    out.insert(
        "client.addressed_ratio",
        ratio(exact("client.reports"), exact("client.visits")),
    );
    out.insert("distance.rows", exact("distance.rows"));
    out.insert(
        "distance.ns_per_row",
        ratio(busy(&scoring) * 1e9, exact("distance.rows")),
    );
    out.insert("fleet.answer.busy_s", busy(&fleet));
    out.insert("fleet.answer.ns_per_report", ns_per(&fleet));
    out.insert("fleet.answer.expand.ns_per_report", ns_per(&fleet[2..3]));
    out.insert("fleet.answer.refine.ns_per_report", ns_per(&fleet[3..]));
    out.insert("session.next_round.busy_s", busy(&["session.next_round"]));
    out.insert(
        "session.submit_shard.busy_s",
        busy(&["session.submit_shard"]),
    );
    out.insert("session.finish.busy_s", busy(&["session.finish"]));
    out.insert("trie.levels", exact("trie.levels"));
    out.insert("trie.candidates_total", exact("trie.candidates_total"));
    out.insert("wire.seal.busy_s", busy(&["wire.seal"]));
    out.insert("wire.seal.ns_per_report", ns_per(&["wire.seal"]));
    out.insert(
        "wire.bytes_per_report",
        ratio(exact("wire.bytes"), exact("ingest.routed_reports")),
    );
    out.insert("registry.route.busy_s", busy(&["registry.route"]));
    out.insert("registry.route.ns_per_frame", ns_per(&["registry.route"]));
    out.insert("ingest.accepted_reports", exact("ingest.accepted_reports"));
    out.insert("ingest.rejected_frames", exact("ingest.rejected_frames"));
    out.insert(
        "ingest.duplicate_reports",
        exact("ingest.duplicate_reports"),
    );
    out.insert(
        "ingest.accept_ratio",
        ratio(
            exact("ingest.accepted_reports"),
            exact("ingest.routed_reports"),
        ),
    );
    for name in ["ingest.queue_high_water", "ingest.backpressure_stalls"] {
        out.insert(name, s.loose.get(name).copied().unwrap_or(0.0));
    }
    out.insert("registry.close.busy_s", busy(&["registry.close"]));
    let p50 = if close_ms.is_empty() {
        0.0
    } else {
        median(close_ms.iter().copied())
    };
    out.insert("registry.close.ms_p50", p50);
    out.insert(
        "registry.close.ms_max",
        close_ms.last().copied().unwrap_or(0.0),
    );
    out.insert("registry.begin.busy_s", busy(&["registry.begin"]));
    out.insert(
        "registry.begin.final.busy_s",
        busy(&["registry.begin.final"]),
    );
    out.insert("registry.finish.busy_s", busy(&["registry.finish"]));
    out.insert("rounds", exact("rounds"));
    out.insert("snapshot.busy_s", busy(&["snapshot"]));
    out.insert("snapshot.bytes", exact("snapshot.bytes"));
    out.insert("restore.busy_s", busy(&["restore"]));
    out.insert(
        "supervisor.begin.busy_s",
        busy(&["supervisor.begin", "supervisor.begin.final"]),
    );
    out.insert("supervisor.route.busy_s", busy(&["supervisor.route"]));
    out.insert(
        "supervisor.close.busy_s",
        busy(&["supervisor.close", "supervisor.close.recovery"]),
    );
    out.insert(
        "supervisor.recovery_s",
        busy(&["supervisor.close.recovery"]),
    );
    for name in [
        "supervisor.recoveries",
        "supervisor.redriven_frames",
        "supervisor.checkpoint_fallbacks",
    ] {
        out.insert(name, exact(name));
    }
    out.insert("trace.extract_s", extract);
    out.insert("trace.blocking_s", blocking);
    out.insert("trace.residual_s", extract - blocking);
    out
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Every layer of one traced sample; layers under 1 ms in total are shown
/// as a call count, since such times are noise.
fn layer_table(s: &Sample) -> String {
    let mut out =
        String::from("  layer (self time, summed over threads)    time            work   spans\n");
    for (layer, t) in s.trace.layers() {
        let time = if t.self_s < 1e-3 {
            format!("{} calls", t.spans)
        } else {
            format!("{:.6} s", t.self_s)
        };
        let _ = writeln!(
            out,
            "  {layer:<40} {time:>14} {:>10} {:>7}",
            t.work, t.spans
        );
    }
    if let Some((extract, blocking)) = s.trace.blocking_path(s.root) {
        let _ = writeln!(
            out,
            "  blocking path: extract {extract:.6} s = main-thread self times {blocking:.6} s + residual {:.6} s",
            extract - blocking
        );
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn write_results(
    args: &Args,
    fingerprint: &host::Fingerprint,
    samples: &[Sample],
    values: &BTreeMap<&'static str, f64>,
    reported: &[Metric],
    twin_wall: f64,
    correct: bool,
    problems: &[String],
) -> Res<()> {
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let list = |f: &dyn Fn(&Sample) -> f64| -> String {
        samples[1..]
            .iter()
            .filter(|s| !s.trace.on())
            .map(|s| number(f(s)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut json = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \
         \"fingerprint\": {},\n  \"correct\": {correct},\n  \"samples\": {},\n  \
         \"twin_wall_s\": {},\n  \"untraced_setup_s\": [{}],\n  \"untraced_extract_s\": [{}],\n  \
         \"untraced_reference_s\": [{}],\n  \"nominal_reference_s\": {},\n  \"metrics\": {{",
        args.workload,
        args.seed,
        number(args.seconds),
        u8::from(args.trace),
        fingerprint.json(),
        samples.len(),
        number(twin_wall),
        list(&|s| s.setup_s),
        list(&|s| s.extract_s),
        list(&|s| s.reference_s),
        number(calib::REFERENCE_S),
    );
    for (i, metric) in reported.iter().enumerate() {
        let v = values.get(metric.name).copied().unwrap_or(f64::NAN);
        let _ = write!(
            json,
            "{}\n    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"better\": \"{}\"}}",
            if i > 0 { "," } else { "" },
            metric.name,
            if v.is_finite() {
                number(v)
            } else {
                "null".into()
            },
            metric.unit,
            metric.better
        );
    }
    json.push_str("\n  },\n  \"exact_counts\": {");
    for (i, (name, v)) in samples[0].exact.iter().enumerate() {
        let _ = write!(
            json,
            "{}\n    \"{name}\": {v}",
            if i > 0 { "," } else { "" }
        );
    }
    json.push_str("\n  },\n  \"problems\": [");
    for (i, p) in problems.iter().enumerate() {
        let _ = write!(
            json,
            "{}\n    \"{}\"",
            if i > 0 { "," } else { "" },
            host::escape(p)
        );
    }
    json.push_str("\n  ]\n}\n");
    std::fs::write(dir.join(format!("{stem}.json")), json)?;

    if args.trace {
        let mut rows = String::from(trace::ROW_HEADER);
        for (i, s) in samples.iter().enumerate() {
            s.trace.write_rows(i, &mut rows);
        }
        std::fs::write(dir.join(format!("{stem}.spans.tsv")), rows)?;
    }
    Ok(())
}
