//! itm-perf — the benchmark of the traffic map's three users: whoever
//! builds the map, whoever keeps it current, and whoever queries it.
//!
//! ```text
//! cargo run --release --manifest-path benches/itm-perf/Cargo.toml -- \
//!     --workload build|epoch-light|serve-zipf|serve-uniform|all \
//!     [--seed N] [--seconds S] [--trace 0|1] [--size small|medium|default] \
//!     [--calibrate K] [--out FILE]
//! ```
//!
//! One workload runs in one process and prints every metric as
//! `workload metric value unit`, then one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced, the metrics
//! are the end-to-end metrics `BENCHMARK.json` names; with `--trace 1`
//! the run measures the workload untraced, then again traced, and the
//! metrics are the per-layer metrics, including the tracing overhead on
//! each end-to-end metric. `--workload all` and `--calibrate K` run each
//! workload (K times) in a child process of its own. The exit code is 0
//! when every output checked out, 1 when one did not, 2 on a bad
//! invocation.

mod build;
mod epoch;
mod serve;
mod stats;
mod trace;
mod world;

use serde_json::{json, Map, Value};
use serve::{run_clients, Mix, Ring};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;
use world::Size;

/// Installed so traced passes can attribute allocations to layers; while
/// tracking is off each allocation costs one relaxed load.
#[global_allocator]
static ALLOC: itm_obs::alloc::TrackingAlloc = itm_obs::alloc::TrackingAlloc::new();

/// Worker threads of the map build: the host's two cores.
pub const THREADS: usize = 2;
/// Build cycles one run measures at least.
pub const MIN_OPS: usize = 3;
/// Set-ups one run times; `setup_s` is their median.
pub const MIN_SETUPS: usize = 3;

/// The benchmark's contract: workloads, metric names, units, directions.
const BENCHMARK: &str = include_str!("../../../BENCHMARK.json");
/// Summary digest of the map of each world size.
const EXPECTED: &str = include_str!("../expected.json");

const USAGE: &str = "usage: itm-perf --workload NAME|all [--seed N] [--seconds S] \
[--trace 0|1] [--size small|medium|default] [--calibrate K] [--out FILE]";

/// What a workload exercises.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Build,
    Epoch,
    Serve(Mix),
}

/// The workloads, each with the world size it runs at by default.
const WORKLOADS: [(&str, Size, Kind); 4] = [
    ("build", Size::Medium, Kind::Build),
    ("epoch-light", Size::Medium, Kind::Epoch),
    ("serve-zipf", Size::Default, Kind::Serve(Mix::Zipf)),
    ("serve-uniform", Size::Default, Kind::Serve(Mix::Uniform)),
];

/// What one pass of a workload measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Operations attempted, checks included.
    pub attempted: u64,
    /// Operations whose output was wrong or that failed.
    pub failed: u64,
    /// Duration of each set-up (s).
    pub setup_s: Vec<f64>,
    /// Latency of each operation (s), for workloads of few long operations.
    pub op_s: Vec<f64>,
    /// Time of each group of `serve::GROUP` consecutive requests (ns), for
    /// the serving workloads.
    pub op_ns: Vec<u32>,
    /// Operations completed in the measured interval.
    pub ops: u64,
    /// Length of the measured interval (s).
    pub wall_s: f64,
}

impl Pass {
    /// The end-to-end metrics of this pass, by name.
    fn end_to_end(&mut self) -> Map {
        // The tail is the highest percentile up to p99 with ten samples
        // beyond it; with fewer than twenty samples, the median.
        let tail = |n: usize| (1.0 - 10.0 / n as f64).clamp(0.5, 0.99);
        let (p50_ms, tail_ms) = if self.op_ns.is_empty() {
            let v = stats::sorted(&self.op_s);
            let q = |p| stats::quantile(&v, p) * 1e3;
            (q(0.5), q(tail(v.len())))
        } else {
            self.op_ns.sort_unstable();
            let per_request = 1e6 * serve::GROUP as f64;
            let q = |p| stats::grouped_quantile(&self.op_ns, p) / per_request;
            (q(0.5), q(tail(self.op_ns.len())))
        };
        let rss = itm_obs::resource::read_proc_rss()
            .0
            .map_or(f64::NAN, |b| b as f64 / 1e6);
        [
            ("setup_s", stats::median(&self.setup_s)),
            ("op_p50_ms", p50_ms),
            ("op_tail_ms", tail_ms),
            ("ops_per_s", self.ops as f64 / self.wall_s),
            ("peak_rss_mb", rss),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), json!(v)))
        .collect()
    }
}

/// Scratch files of this process, under the build's target directory,
/// deleted when the run ends.
pub struct Scratch {
    dir: PathBuf,
    files: RefCell<Vec<PathBuf>>,
}

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("itm-perf")
}

impl Scratch {
    fn new() -> std::io::Result<Scratch> {
        let dir = target_dir();
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch {
            dir,
            files: RefCell::new(Vec::new()),
        })
    }

    /// The path of scratch file `name`.
    pub fn file(&self, name: &str) -> String {
        let path = self.dir.join(format!("{}-{name}", std::process::id()));
        self.files.borrow_mut().push(path.clone());
        path.to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        for f in self.files.borrow().iter() {
            let _ = std::fs::remove_file(f);
        }
    }
}

/// The summary digest `expected.json` records for the map of `size`.
pub fn expected_digest(size: Size) -> Option<String> {
    let all: Value = serde_json::from_str(EXPECTED).ok()?;
    Some(all.get(size.name())?.as_str()?.to_string())
}

/// Name, unit and "higher is better" of each metric in one section of
/// `BENCHMARK.json`.
fn contract(section: &str) -> Vec<(String, String, bool)> {
    let doc: Value = serde_json::from_str(BENCHMARK).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_array)
        .expect("BENCHMARK.json section")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"), field("better") == "higher")
        })
        .collect()
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Option<Size>,
    calibrate: Option<usize>,
    out: Option<String>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 42,
            seconds: 10.0,
            trace: false,
            size: None,
            calibrate: None,
            out: None,
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            let bad = |v: &str| format!("bad value {v:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    if v != "all" && !WORKLOADS.iter().any(|w| w.0 == v) {
                        return Err(format!("unknown workload {v:?}"));
                    }
                    a.workload = v;
                }
                "--seed" => {
                    let v = value()?;
                    a.seed = v.parse().map_err(|_| bad(&v))?;
                }
                "--seconds" => {
                    let v = value()?;
                    a.seconds = v
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0 && s.is_finite())
                        .ok_or(bad(&v))?;
                }
                "--trace" => {
                    let v = value()?;
                    a.trace = match v.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&v)),
                    };
                }
                "--size" => {
                    let v = value()?;
                    a.size = Some(Size::parse(&v).ok_or(bad(&v))?);
                }
                "--calibrate" => {
                    let v = value()?;
                    a.calibrate = Some(v.parse().ok().filter(|k| *k >= 5).ok_or(bad(&v))?);
                }
                "--out" => a.out = Some(value()?),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if a.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(a)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("itm-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" || args.calibrate.is_some() {
        orchestrate(&args)
    } else {
        run_one(&args)
    }
}

/// Run one pass of workload `w`, followed, when traced, by the tour of
/// the layers the workload itself does not exercise.
fn run_pass(
    w: usize,
    size: Size,
    args: &Args,
    tracer: &Tracer,
    scratch: &Scratch,
) -> itm_types::Result<Pass> {
    let (_, _, kind) = WORKLOADS[w];
    let (mut pass, mut s, map, epoch) = match kind {
        Kind::Build => {
            let (pass, s, map) = build::build_pass(size, args.seconds, tracer, scratch)?;
            (pass, s, map, 0)
        }
        Kind::Epoch => epoch::epoch_pass(size, args.seed, args.seconds, tracer)?,
        Kind::Serve(mix) => {
            let (pass, s, map) = serve_pass(mix, size, args, tracer, scratch)?;
            (pass, s, map, 0)
        }
    };
    if tracer.on() {
        let (map, snap, bad) = epoch::epoch_tour(&mut s, map, epoch + 1, tracer, scratch)?;
        pass.attempted += 1;
        pass.failed += bad;
        if !tracer.has("serve.reverse_p99_ns") || !tracer.has("serve.point_p99_ns") {
            let len = if size == Size::Small {
                1 << 14
            } else {
                1 << 20
            };
            let ring = Ring::generate(
                &s,
                &map,
                &snap,
                Mix::Uniform,
                len,
                (64, Some(256)),
                args.seed,
            );
            let sample = run_clients(&ring, &snap, None, tracer);
            pass.attempted += sample.attempted;
            pass.failed += sample.failed;
        }
    }
    Ok(pass)
}

/// A serving workload: build the world's map and publish it (the
/// inputs), draw the request ring, then open the snapshot
/// `MIN_SETUPS` times (the set-up) and serve from the last one.
fn serve_pass(
    mix: Mix,
    size: Size,
    args: &Args,
    tracer: &Tracer,
    scratch: &Scratch,
) -> itm_types::Result<(Pass, itm_measure::Substrate, itm_core::TrafficMap)> {
    let config_err = |e: String| itm_types::ItmError::config("serve", e);
    let s = tracer.time("measure.substrate_build", || world::world(size))?;
    let exec = itm_core::ParallelExecutor::new(THREADS);
    let map = build::full_build(&s, &exec, tracer)?;
    let bad = build::check_map(&s, &map, size, &exec, tracer)?;
    let path = scratch.file("serve.snap");
    let published = build::publish(&s, &map, &path, tracer).map_err(config_err)?;
    let len = if size == Size::Small {
        1 << 14
    } else {
        1 << 21
    };
    let reverse = (mix == Mix::Uniform).then_some(65_536);
    let ring = Ring::generate(&s, &map, &published, mix, len, (64, reverse), args.seed);
    drop(published);

    let mut setup = Vec::new();
    let mut snap = None;
    for _ in 0..MIN_SETUPS {
        drop(snap.take());
        let t = Instant::now();
        snap = Some(build::open(&path, tracer).map_err(config_err)?);
        setup.push(t.elapsed().as_secs_f64());
    }
    let snap = snap.expect("opened at least once");
    let mut pass = run_clients(&ring, &snap, Some(args.seconds), tracer);
    pass.setup_s = setup;
    pass.attempted += 1;
    pass.failed += bad;
    Ok((pass, s, map))
}

/// The cost of one clock read, in ns.
fn timer_overhead_ns() -> f64 {
    const READS: u32 = 1 << 16;
    let t = Instant::now();
    for _ in 0..READS {
        std::hint::black_box(Instant::now());
    }
    t.elapsed().as_secs_f64() * 1e9 / f64::from(READS)
}

/// Run one workload in this process and print its result.
fn run_one(args: &Args) -> ExitCode {
    let w = WORKLOADS
        .iter()
        .position(|x| x.0 == args.workload)
        .expect("workload checked at parse");
    let (name, default_size, _) = WORKLOADS[w];
    let size = args.size.unwrap_or(default_size);
    let result = Scratch::new()
        .map_err(|e| format!("scratch directory: {e}"))
        .and_then(|scratch| measure(w, size, args, &scratch));
    let (attempted, failed, metrics, problems) = match result {
        Ok(r) => r,
        Err(e) => (1, 1, Map::new(), vec![e]),
    };
    for p in &problems {
        eprintln!("itm-perf: {name}: {p}");
    }
    for (metric, v) in metrics.iter() {
        let value = v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let unit = v.get("unit").and_then(Value::as_str).unwrap_or("");
        println!("{name} {metric} {value} {unit}");
    }
    let correct = failed == 0 && problems.is_empty();
    println!(
        "{}",
        json!({ "correct": correct, "attempted": attempted, "failed": failed, "metrics": Value::Object(metrics) })
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Measure workload `w`: the untraced pass, and with `--trace 1` the
/// traced pass too. Returns attempted and failed operations, the metrics
/// as `{name: {value, unit}}`, and anything that kept a metric from being
/// measured.
fn measure(
    w: usize,
    size: Size,
    args: &Args,
    scratch: &Scratch,
) -> Result<(u64, u64, Map, Vec<String>), String> {
    let mut untraced = run_pass(w, size, args, &Tracer::new(false, w as u32), scratch)
        .map_err(|e| e.to_string())?;
    let plain = untraced.end_to_end();
    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;
    let mut problems = Vec::new();
    let mut metrics = Map::new();
    let mut put = |name: &str, unit: &str, value: Option<f64>| match value {
        Some(v) if v.is_finite() => {
            metrics.insert(name.to_string(), json!({ "value": v, "unit": unit }));
        }
        _ => problems.push(format!("metric {name} was not measured")),
    };
    if !args.trace {
        for (name, unit, _) in contract("end_to_end") {
            put(&name, &unit, plain.get(&name).and_then(Value::as_f64));
        }
        return Ok((attempted, failed, metrics, problems));
    }

    let tracer = Tracer::new(true, w as u32);
    tracer.observe("bench.timer_overhead_ns", timer_overhead_ns());
    let mut traced = run_pass(w, size, args, &tracer, scratch).map_err(|e| e.to_string())?;
    attempted += traced.attempted;
    failed += traced.failed;
    let with_spans = traced.end_to_end();
    for (name, _, higher_is_better) in contract("end_to_end") {
        let (Some(a), Some(b)) = (
            plain.get(&name).and_then(Value::as_f64),
            with_spans.get(&name).and_then(Value::as_f64),
        ) else {
            continue;
        };
        let worse = if higher_is_better { a - b } else { b - a };
        tracer.observe(
            &format!("bench.tracing_overhead_pct.{name}"),
            100.0 * worse / a,
        );
    }
    let medians = tracer.medians();
    for (name, unit, _) in contract("per_layer") {
        put(&name, &unit, medians.get(&name).copied());
    }
    let trace_path = target_dir().join(format!("trace-{}-seed{}.json", WORKLOADS[w].0, args.seed));
    if let Err(e) = std::fs::write(&trace_path, tracer.chrome_trace().to_string()) {
        eprintln!("itm-perf: cannot write {}: {e}", trace_path.display());
    } else {
        eprintln!("itm-perf: spans written to {}", trace_path.display());
    }
    Ok((attempted, failed, metrics, problems))
}

/// Run the chosen workloads in child processes — each once, or
/// `--calibrate K` times — and summarize them.
fn orchestrate(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("itm-perf: cannot find own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let runs = args.calibrate.unwrap_or(1);
    let mut ok = true;
    let mut results = Map::new();
    for (name, _, _) in WORKLOADS
        .iter()
        .filter(|w| args.workload == "all" || w.0 == args.workload)
    {
        let mut per_run = Vec::new();
        for run in 0..runs {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(Stdio::inherit());
            if let Some(size) = args.size {
                cmd.args(["--size", size.name()]);
            }
            let out = match cmd.output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("itm-perf: cannot run {name}: {e}");
                    return ExitCode::from(1);
                }
            };
            let stdout = String::from_utf8_lossy(&out.stdout);
            let lines: Vec<&str> = stdout.lines().collect();
            let (last, metric_lines) = lines.split_last().unwrap_or((&"", &[]));
            match serde_json::from_str::<Value>(last) {
                Ok(v) => {
                    ok &= out.status.success()
                        && v.get("correct").and_then(Value::as_bool) == Some(true);
                    if runs == 1 {
                        metric_lines.iter().for_each(|l| println!("{l}"));
                    } else {
                        eprintln!("itm-perf: {name} run {}/{runs} done", run + 1);
                    }
                    per_run.push(v);
                }
                Err(_) => {
                    eprintln!("itm-perf: {name} printed no result");
                    ok = false;
                }
            }
        }
        results.insert(
            name.to_string(),
            if runs == 1 {
                per_run.pop().unwrap_or(Value::Null)
            } else {
                calibration(&per_run)
            },
        );
    }
    let doc = json!({
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": runs as u64,
        "workloads": Value::Object(results),
    });
    let out = args.out.clone().or_else(|| {
        args.calibrate
            .map(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/calibration.json").to_string())
    });
    match out {
        Some(path) => match std::fs::write(
            &path,
            serde_json::to_string_pretty(&doc).unwrap_or_default() + "\n",
        ) {
            Ok(()) => eprintln!("itm-perf: wrote {path}"),
            Err(e) => {
                eprintln!("itm-perf: cannot write {path}: {e}");
                ok = false;
            }
        },
        None => println!("{doc}"),
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Per-metric statistics over repeated runs of one workload: median,
/// quartiles, extremes, and the bound they suggest — twice the observed
/// range as a share of the median, at least 5%, at most 25%.
fn calibration(runs: &[Value]) -> Value {
    let mut names: Vec<String> = Vec::new();
    for r in runs {
        if let Some(Value::Object(m)) = r.get("metrics") {
            for (k, _) in m.iter() {
                if !names.contains(k) {
                    names.push(k.clone());
                }
            }
        }
    }
    let mut out = Map::new();
    for name in names {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.get("metrics")?.get(&name)?.get("value")?.as_f64())
            .collect();
        let v = stats::sorted(&values);
        let [q1, median, q3] = stats::quartiles(&v);
        let (min, max) = (v[0], v[v.len() - 1]);
        let range = (max - min) / median.abs();
        out.insert(
            name,
            json!({
                "median": median,
                "q1": q1,
                "q3": q3,
                "min": min,
                "max": max,
                "iqr_over_median": (q3 - q1) / median.abs(),
                "range_over_median": range,
                "suggested_bound": (2.0 * range).clamp(0.05, 0.25),
            }),
        );
    }
    Value::Object(out)
}
