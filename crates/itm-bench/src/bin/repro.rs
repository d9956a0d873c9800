//! `repro` — regenerate every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p itm-bench --bin repro                 # everything
//! cargo run --release -p itm-bench --bin repro -- --exp fig2   # one artifact
//! cargo run --release -p itm-bench --bin repro -- --size small --seed 7
//! cargo run --release -p itm-bench --bin repro -- --ablations  # D1–D5 too
//! cargo run --release -p itm-bench --bin repro -- --exp coverage --metrics
//! cargo run --release -p itm-bench --bin repro -- --exp map --trace
//! cargo run --release -p itm-bench --bin repro -- --exp map --threads 8
//! cargo run --release -p itm-bench --bin repro -- --explain pfx0 svc0
//! cargo run --release -p itm-bench --bin repro -- --exp map --faults light
//! cargo run --release -p itm-bench --bin repro -- --exp map --audit
//! cargo run --release -p itm-bench --bin repro -- --exp map --audit out=q.json
//! cargo run --release -p itm-bench --bin repro -- --bench-record
//! cargo run --release -p itm-bench --bin repro -- --bench-record --size small,default
//! cargo run --release -p itm-bench --bin repro -- --exp map --snapshot
//! cargo run --release -p itm-bench --bin repro -- --query point pfx0 svc0
//! cargo run --release -p itm-bench --bin repro -- --query reverse 10.0.0.1
//! cargo run --release -p itm-bench --bin repro -- --query route 0 1
//! cargo run --release -p itm-bench --bin repro -- --bench-query --size small
//! cargo run --release -p itm-bench --bin repro -- --epochs 5
//! cargo run --release -p itm-bench --bin repro -- --epochs 5 --epoch-plan heavy
//! cargo run --release -p itm-bench --bin repro -- --epochs 3 --epoch-verify
//! cargo run --release -p itm-bench --bin repro -- --diff a.snap b.snap
//! ```
//!
//! Results land in `results/<id>.csv` plus a combined
//! `results/summary.txt`; `--metrics` additionally records pipeline
//! instrumentation (phase timings, probe budgets) to
//! `results/metrics.json`; `--trace [path]` records the causal event
//! trace in Chrome trace format (load it in Perfetto / `chrome://tracing`);
//! `--threads N` sizes the worker pool of the world and map builds
//! (default: available parallelism) — output is byte-identical at any
//! thread count;
//! `--faults PROFILE` runs the campaigns under a deterministic fault plan
//! (`off` | `light` | `heavy` | a JSON plan file) — the same profile is
//! byte-reproducible across runs and thread counts, and `--faults off`
//! (the default) is byte-identical to not passing the flag at all;
//! `--bench-record` runs the map build once per size in `--size` (a
//! comma list in this mode, default `small,default,large`) with resource
//! profiling on and appends one schema-versioned row per size to the
//! `BENCH_map_build.json` trajectory (`--bench-out` overrides the path,
//! `--bench-baseline FILE` exits 1 if peak tracked bytes regress more
//! than 10% against the matching rows of a baseline trajectory).
//!
//! `--snapshot [FILE]` serializes the assembled map into the versioned,
//! checksummed binary snapshot (wire format: DESIGN.md §14; default
//! `<out>/map.snap`): byte-identical at any `--threads`, and rejected on
//! open if any single byte is corrupted. `--query` answers point, reverse,
//! and route lookups zero-copy off such a snapshot — no substrate build,
//! the provenance (technique claim list) of every point answer included.
//! `--explain <prefix> <service>` is `--query point <prefix> <service>`:
//! which techniques saw that cell, read from the snapshot the user holds.
//! Both take no build flag (`--exp`, `--ablations`, `--audit`, `--trace`,
//! `--metrics`, a `--faults` plan, `--epochs`, `--diff`): one beside them
//! exits 2 rather than being ignored. `--bench-query` builds the map
//! once and appends a sustained point-lookup throughput row to the
//! schema-versioned `BENCH_query.json` trajectory.
//!
//! `--audit [out=FILE]` scores every measurement technique against the
//! substrate's ground truth and writes a schema-versioned
//! `results/map_quality.json` (per-technique precision/recall/coverage
//! with service-class and population-tier breakdowns, the per-cell
//! disagreement index, pairwise agreement). The report is byte-identical
//! at any `--threads`, composes with `--faults` (a `faults` section
//! appears exactly as in the map summary), and with it off no artifact
//! changes by a byte.
//!
//! `--metrics` also turns on allocation profiling: `metrics.json` gains a
//! `resources` section (peak RSS, allocator-tracked bytes, per-phase
//! attribution). Profiling never changes map bytes — with it off, output
//! is byte-identical to builds that predate the profiler.
//!
//! `--epochs N` runs the continuous-map loop (DESIGN.md §15): one full
//! build (epoch 0), then N epochs of deterministic substrate churn under
//! `--epoch-plan` (`off` | `light` | `heavy` | a JSON plan file; default
//! `light`), each followed by an *incremental* rebuild that recomputes
//! only the campaigns the churn invalidated. Per-epoch rows land in
//! `results/epoch_metrics.json`; with `--snapshot` every epoch's map is
//! serialized to `<path>.epochK` (and the final epoch to `<path>` itself).
//! `--epoch-verify` additionally runs a from-scratch build each epoch,
//! asserts the incremental map is byte-identical (exit 1 on divergence),
//! and appends one incremental-vs-full speedup row per epoch to the
//! schema-versioned `BENCH_epoch.json` trajectory (`--bench-out`
//! overrides the path).
//!
//! `--diff A B` compares two map snapshots of the same universe and
//! writes every edge added, removed, moved, or re-evidenced — with the
//! technique provenance behind each delta — to the deterministic
//! `results/map_diff.json`, printing a kind-by-kind tally. Snapshots
//! that are missing, corrupted, version-mismatched, or describe
//! different universes exit 2; an empty delta (e.g. a snapshot diffed
//! against itself) exits 0.
//!
//! The experiment list lives in one table, [`EXPERIMENTS`]: run order,
//! the `--exp` ids, the usage text's id lists and the map-building check
//! all come from it, so adding an experiment means adding one row. Every
//! mode returns its exit code or a [`UsageError`]; `main` alone prints
//! the error and exits 2.

use itm_bench::plan::{self, Plan};
use itm_bench::{ablations, experiments, ExperimentResult};
use itm_core::{MapConfig, MapSummary, ParallelExecutor, TrafficMap};
use itm_measure::{Substrate, SubstrateConfig};
use itm_serve::Snapshot;
use itm_topology::TopologyConfig;
use itm_types::{EpochPlan, FaultPlan, PrefixId, ServiceId};
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

// The instrumented allocator wrapper. Installation is free when tracking
// is off (one relaxed load per allocation) and is what lets `--metrics`
// and `--bench-record` attribute bytes to pipeline phases.
#[global_allocator]
static ALLOC: itm_obs::alloc::TrackingAlloc = itm_obs::alloc::TrackingAlloc::new();

/// Schema version stamped on the `BENCH_map_build.json` trajectory file
/// and each of its rows.
const BENCH_SCHEMA_VERSION: u64 = 1;

/// What an experiment's run function reads.
struct Ctx<'a> {
    s: &'a Substrate,
    /// The assembled map; built whenever a selected row needs it.
    map: Option<&'a TrafficMap>,
    cfg: &'a SubstrateConfig,
    seed: u64,
    /// The `--threads` executor, for experiments that build worlds.
    exec: &'a ParallelExecutor,
    out_dir: &'a str,
}

impl Ctx<'_> {
    fn map(&self) -> &TrafficMap {
        self.map
            .expect("the map is built for every map-building row")
    }
}

/// One experiment: its id, whether it runs on the assembled map, and its
/// run function. Ids starting `ab_` are ablations (run with
/// `--ablations`, or singly via `--exp`).
type Experiment = (&'static str, bool, fn(&Ctx) -> ExperimentResult);

/// Every experiment, in run order.
const EXPERIMENTS: &[Experiment] = &[
    ("map", true, map_summary),
    ("table1", true, |c| experiments::table1(c.s, c.map())),
    ("fig1a", true, |c| experiments::fig1a(c.s, c.map())),
    ("fig1b", true, |c| experiments::fig1b(c.s, c.map())),
    ("fig2", true, |c| experiments::fig2(c.s, c.map())),
    ("coverage", true, |c| {
        experiments::coverage_claims(c.s, c.map())
    }),
    ("ecs", true, |c| experiments::ecs(c.s, c.map())),
    ("pathlen", false, |c| experiments::pathlen(c.s)),
    ("anycast", false, |c| experiments::anycast(c.s)),
    ("pathpred", false, |c| experiments::pathpred(c.s)),
    ("recommend", false, |c| experiments::recommend(c.s)),
    ("ipid", false, |c| experiments::ipid(c.s)),
    ("visibility", false, |c| experiments::visibility(c.s)),
    ("consolidation", false, |c| experiments::consolidation(c.s)),
    ("cachehost", false, |c| experiments::cachehost(c.s)),
    ("assoc", false, |c| experiments::assoc(c.s)),
    ("staleness", false, |c| experiments::staleness(c.s, c.exec)),
    ("ab_ecs_scope", false, |c| ablations::ab_ecs_scope(c.s)),
    ("ab_resolver_assumption", false, |c| {
        ablations::ab_resolver_assumption(c.cfg, c.seed, c.exec)
    }),
    ("ab_collectors", false, |c| ablations::ab_collectors(c.s)),
    ("ab_recommend_features", false, |c| {
        ablations::ab_recommend_features(c.s)
    }),
    ("ab_probe_budget", false, |c| {
        ablations::ab_probe_budget(c.s)
    }),
];

fn is_ablation(id: &str) -> bool {
    id.starts_with("ab_")
}

/// The ids of the table rows `keep` accepts, space-separated.
fn experiment_ids(keep: impl Fn(&Experiment) -> bool) -> String {
    let ids: Vec<&str> = EXPERIMENTS
        .iter()
        .filter(|e| keep(e))
        .map(|e| e.0)
        .collect();
    ids.join(" ")
}

/// The `map` experiment: write `map_summary.json` and report its counts.
fn map_summary(c: &Ctx) -> ExperimentResult {
    let summary = MapSummary::extract(c.s, c.map());
    let path = format!("{}/map_summary.json", c.out_dir);
    std::fs::write(&path, summary.to_json().expect("serializable")).expect("write map summary");
    eprintln!("  wrote {path}");
    ExperimentResult {
        id: "map",
        title: "assembled traffic map (map_summary.json)".into(),
        csv_header: "metric,value".into(),
        csv_rows: vec![
            format!("user_prefixes,{}", summary.user_prefixes.len()),
            format!("mapping_cells,{}", summary.mapping_cells),
            format!("offnets,{}", summary.offnets.len()),
            format!("route_edges,{}", summary.route_edges),
            format!("invisible_peering,{:.4}", summary.invisible_peering),
        ],
        headline: vec![
            (
                "user prefixes".into(),
                summary.user_prefixes.len().to_string(),
            ),
            ("mapping cells".into(), summary.mapping_cells.to_string()),
            (
                "offnet deployments".into(),
                summary.offnets.len().to_string(),
            ),
            ("route edges".into(), summary.route_edges.to_string()),
        ],
    }
}

/// A bad invocation, caught before (or instead of) the work it asked
/// for. `main` prints it and exits 2.
enum UsageError {
    /// A malformed command line: printed with the usage text after it.
    Usage(String),
    /// A well-formed command line naming a bad path or file.
    Plain(String),
}

/// What a mode returns: its exit code (0 done, 1 a negative answer or a
/// failed gate) or the usage error that stopped it.
type Outcome = Result<ExitCode, UsageError>;

#[derive(Default)]
struct Args {
    exp: Option<String>,
    seed: u64,
    /// `--size`; `None` means `default` (or, for `--bench-record`, the
    /// whole `small,default,large` trajectory).
    size: Option<String>,
    ablations: bool,
    out_dir: String,
    metrics: bool,
    /// `--threads` (0 is rejected at parse time); `None` means the
    /// machine's available parallelism, or one worker for
    /// `--bench-record` so peak-byte accounting is deterministic. Any
    /// value produces byte-identical output.
    threads: Option<usize>,
    /// `--trace` was given; `Some(path)` if it carried an explicit output
    /// path, `None` for the default `<out>/trace.json`.
    trace: Option<Option<String>>,
    /// `--audit` was given; `Some(spec)` if it carried a sub-option
    /// string (`out=FILE`), `None` for the defaults.
    audit: Option<Option<String>>,
    /// Fault plan the map build runs under (default: off).
    faults: FaultPlan,
    /// `--bench-record`: run the map build per size with profiling on and
    /// append trajectory rows instead of running experiments.
    bench_record: bool,
    /// `--bench-out`: the trajectory file a bench mode appends to
    /// (default: the mode's own `BENCH_*.json`).
    bench_out: Option<String>,
    /// `--bench-baseline FILE`: exit 1 if peak tracked bytes regress >10%
    /// against the matching-size rows of this baseline trajectory.
    bench_baseline: Option<String>,
    /// `--snapshot` was given; `Some(path)` if it carried an explicit
    /// file, `None` for the default `<out>/map.snap`. In build mode this
    /// is where the snapshot is written; with `--query` it is where the
    /// snapshot is read from.
    snapshot: Option<Option<String>>,
    /// `--query KIND ARGS…` (or `--explain P S`, which is `point P S`):
    /// answer one query off an existing snapshot and exit without
    /// building anything.
    query: Option<Vec<String>>,
    /// `--bench-query`: build the map once, snapshot it, and benchmark
    /// sustained point-lookup throughput into the query trajectory.
    bench_query: bool,
    /// `--epochs N`: run the continuous-map loop for N epochs of churn
    /// after the initial full build.
    epochs: Option<u32>,
    /// `--epoch-plan`: the raw argument (labels metrics rows) and the
    /// churn plan it names; `None` means `light`.
    epoch_plan: Option<(String, EpochPlan)>,
    /// `--epoch-verify`: full-rebuild every epoch, assert byte-identity,
    /// and record incremental-vs-full speedup rows.
    epoch_verify: bool,
    /// `--diff A B`: diff two snapshots and exit without building.
    diff: Option<(String, String)>,
}

impl Args {
    fn size(&self) -> &str {
        self.size.as_deref().unwrap_or("default")
    }

    fn threads(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }

    /// Whether the run includes table row `id`: the one `--exp` names, or
    /// every experiment (ablations only with `--ablations`).
    fn selects(&self, id: &str) -> bool {
        match &self.exp {
            Some(exp) => exp == id,
            None => self.ablations || !is_ablation(id),
        }
    }
}

const QUERY_EXPECTS: &str =
    "--query expects: point PREFIX SERVICE | reverse ADDR | route ASN [ASN]";
const PLAN_EXPECTS: &str = "off|light|heavy|FILE";

fn usage() -> String {
    format!(
        "usage: repro [--exp <id>] [--seed N] [--size small|default|large] \
         [--threads N] [--ablations] [--metrics] [--trace [FILE]] \
         [--audit [out=FILE]] [--explain PREFIX SERVICE] \
         [--faults off|light|heavy|FILE] [--out DIR] \
         [--snapshot [FILE]] \
         [--query point PREFIX SERVICE | reverse ADDR | route ASN [ASN]] \
         [--epochs N] [--epoch-plan off|light|heavy|FILE] [--epoch-verify] \
         [--diff SNAP_A SNAP_B] \
         [--bench-record] [--bench-query] [--bench-out FILE] \
         [--bench-baseline FILE] [--help|-h]\n\
         with --bench-record, --size takes a comma list (default \
         small,default,large) and --threads defaults to 1;\n\
         --snapshot writes the queryable map snapshot (default \
         <out>/map.snap) and needs a map-building experiment; \
         --query answers one lookup off an existing snapshot (path from \
         --snapshot, default <out>/map.snap) without building anything, \
         and takes no build flag; --explain PREFIX SERVICE is \
         --query point PREFIX SERVICE; \
         --bench-query benchmarks point-lookup throughput into \
         BENCH_query.json (override with --bench-out);\n\
         --epochs runs the continuous-map loop: one full build, then N \
         epochs of deterministic churn (--epoch-plan, default light) each \
         followed by an incremental rebuild; rows land in \
         <out>/epoch_metrics.json, --epoch-verify asserts byte-identity \
         against a from-scratch build every epoch and records speedup \
         rows to BENCH_epoch.json (override with --bench-out); \
         an --epoch-plan FILE is a JSON object with any of: \
         resolver_churn, link_flaps, vm_churn, rehome_services, \
         diurnal_shift_hours;\n\
         --diff writes every cell and route delta between two snapshots \
         (with technique provenance) to <out>/map_diff.json;\n\
         --audit writes <out>/map_quality.json (override with out=FILE) and \
         needs a map-building experiment: {};\n\
         PREFIX is pfxN, a bare index, or a /24 like 10.0.0.0/24;\n\
         SERVICE is svcN, a bare index, or a domain like svc0.example;\n\
         a --faults FILE is a JSON object with any of: loss, timeout, \
         refusal, churn, max_retries, backoff_base_secs, backoff_cap_secs\n\
         experiment ids: {}\n\
         ablation ids (with --exp): {}",
        experiment_ids(|e| e.1),
        experiment_ids(|e| !is_ablation(e.0)),
        experiment_ids(|e| is_ablation(e.0)),
    )
}

/// The command line after the program name, read one flag at a time.
struct Argv(std::iter::Peekable<std::vec::IntoIter<String>>);

impl Argv {
    /// The next token, if it is an operand (flags never start another
    /// flag's value).
    fn operand(&mut self) -> Option<String> {
        self.0.next_if(|v| !v.starts_with("--"))
    }

    /// The value a flag requires; missing, it is a usage error saying
    /// what the flag expects.
    fn value(&mut self, flag: &str, expects: &str) -> Result<String, UsageError> {
        self.operand()
            .ok_or_else(|| UsageError::Usage(format!("{flag} expects {expects}")))
    }

    /// The two values a flag requires.
    fn pair(&mut self, flag: &str, expects: &str) -> Result<(String, String), UsageError> {
        Ok((self.value(flag, expects)?, self.value(flag, expects)?))
    }

    /// A flag's integer value, at least `min`.
    fn int<T: std::str::FromStr + PartialOrd>(
        &mut self,
        flag: &str,
        expects: &str,
        min: T,
    ) -> Result<T, UsageError> {
        let raw = self.value(flag, expects)?;
        match raw.parse() {
            Ok(n) if n >= min => Ok(n),
            _ => Err(UsageError::Usage(format!(
                "{flag} expects {expects}, got {raw:?}"
            ))),
        }
    }

    /// A flag's plan: a named profile or a JSON plan file.
    fn plan<P: Plan>(&mut self, flag: &str) -> Result<(String, P), UsageError> {
        let raw = self.value(flag, PLAN_EXPECTS)?;
        let plan = plan::load(flag, &raw).map_err(UsageError::Usage)?;
        Ok((raw, plan))
    }
}

/// Parse and cross-check the command line; `None` means `--help`. Every
/// rejection here comes before any filesystem work.
fn parse_args() -> Result<Option<Args>, UsageError> {
    let mut args = Args {
        seed: 42,
        out_dir: "results".into(),
        ..Default::default()
    };
    let mut explain = None;
    let mut argv = Argv(
        std::env::args()
            .skip(1)
            .collect::<Vec<_>>()
            .into_iter()
            .peekable(),
    );
    while let Some(flag) = argv.0.next() {
        match flag.as_str() {
            "--exp" => args.exp = Some(argv.value("--exp", "an experiment id")?),
            "--seed" => args.seed = argv.int("--seed", "an integer", 0)?,
            "--size" => {
                // The size labels bench rows and artifacts, so a missing
                // value must never silently mean "default".
                let expects = "small|default|large (a comma list with --bench-record)";
                args.size = Some(argv.value("--size", expects)?);
            }
            "--threads" => args.threads = Some(argv.int("--threads", "a positive integer", 1)?),
            "--epochs" => args.epochs = Some(argv.int("--epochs", "a positive integer", 1)?),
            "--epoch-plan" => args.epoch_plan = Some(argv.plan("--epoch-plan")?),
            "--faults" => args.faults = argv.plan::<FaultPlan>("--faults")?.1,
            "--diff" => args.diff = Some(argv.pair("--diff", "two snapshot paths")?),
            "--explain" => explain = Some(argv.pair("--explain", "PREFIX and SERVICE")?),
            // Greedy: the kind plus every following operand (shape checked
            // below).
            "--query" => args.query = Some(std::iter::from_fn(|| argv.operand()).collect()),
            "--bench-out" => args.bench_out = Some(argv.value("--bench-out", "a file path")?),
            "--bench-baseline" => {
                args.bench_baseline = Some(argv.value("--bench-baseline", "a file path")?)
            }
            "--out" => args.out_dir = argv.value("--out", "a directory")?,
            "--snapshot" => args.snapshot = Some(argv.operand()),
            "--trace" => args.trace = Some(argv.operand()),
            "--audit" => args.audit = Some(argv.operand()),
            "--ablations" => args.ablations = true,
            "--metrics" => args.metrics = true,
            "--bench-record" => args.bench_record = true,
            "--bench-query" => args.bench_query = true,
            "--epoch-verify" => args.epoch_verify = true,
            "--help" | "-h" => return Ok(None),
            other => {
                return Err(UsageError::Plain(format!(
                    "unknown argument {other}; try --help"
                )))
            }
        }
    }
    // `--explain P S` is the point query `--query point P S`.
    if let Some((prefix, service)) = explain {
        if args.query.is_some() {
            return Err(UsageError::Usage(
                "--explain and --query are mutually exclusive".into(),
            ));
        }
        args.query = Some(vec!["point".into(), prefix, service]);
    }
    // Reject unknown experiment ids up front, before the (expensive)
    // substrate build.
    if let Some(exp) = &args.exp {
        if !EXPERIMENTS.iter().any(|e| e.0 == exp) {
            return Err(UsageError::Usage(format!("unknown experiment id {exp:?}")));
        }
    }
    // Comma-separated sizes exist only in bench-record mode; everywhere
    // else an unknown size is a usage error, so `--size lrage` can never
    // label artifacts from a silently substituted default build.
    // Bench-record checks its list entry by entry in `bench_sizes`.
    if !args.bench_record {
        if args.size().contains(',') {
            return Err(UsageError::Usage(
                "--size takes a comma list only with --bench-record".into(),
            ));
        }
        size_config(&args)?;
    }
    // The three diverging modes are mutually exclusive.
    if (args.bench_record && args.bench_query)
        || (args.query.is_some() && (args.bench_record || args.bench_query))
    {
        return Err(UsageError::Usage(
            "--bench-record, --bench-query, and --query are mutually exclusive".into(),
        ));
    }
    if let Some(spec) = &args.query {
        let ok = match spec.first().map(|s| s.as_str()) {
            Some("point") => spec.len() == 3,
            Some("reverse") => spec.len() == 2,
            Some("route") => spec.len() == 2 || spec.len() == 3,
            _ => false,
        };
        if !ok {
            return Err(UsageError::Usage(QUERY_EXPECTS.into()));
        }
        // A lookup builds nothing, so a build flag beside it would be
        // silently ignored.
        if args.exp.is_some()
            || args.ablations
            || args.audit.is_some()
            || args.trace.is_some()
            || args.metrics
            || !args.faults.is_off()
            || args.epochs.is_some()
            || args.diff.is_some()
        {
            return Err(UsageError::Usage(
                "a lookup (--query, --explain) reads a snapshot and does not \
                 combine with --exp, --ablations, --audit, --trace, --metrics, \
                 --faults, --epochs or --diff"
                    .into(),
            ));
        }
    }
    let other_modes = args.exp.is_some()
        || args.audit.is_some()
        || args.ablations
        || args.query.is_some()
        || args.bench_record
        || args.bench_query;
    // The diff mode never builds anything; combining it with a build
    // mode would silently ignore one of the two.
    if args.diff.is_some() && (other_modes || args.epochs.is_some() || args.snapshot.is_some()) {
        return Err(UsageError::Usage(
            "--diff does not combine with other modes".into(),
        ));
    }
    // The epoch loop drives its own builds.
    if args.epochs.is_some() && other_modes {
        return Err(UsageError::Usage(
            "--epochs does not combine with --exp, --explain, --query, \
             --audit, --ablations, or the bench recorders"
                .into(),
        ));
    }
    // Epoch sub-flags without the mode itself are silent no-ops.
    if args.epochs.is_none() && (args.epoch_plan.is_some() || args.epoch_verify) {
        return Err(UsageError::Usage(
            "--epoch-plan and --epoch-verify need --epochs N".into(),
        ));
    }
    // So are the trajectory flags outside the modes that write or gate a
    // trajectory.
    if args.bench_out.is_some() && !(args.bench_record || args.bench_query || args.epoch_verify) {
        return Err(UsageError::Usage(
            "--bench-out needs --bench-record, --bench-query or --epochs N --epoch-verify".into(),
        ));
    }
    if args.bench_baseline.is_some() && !args.bench_record {
        return Err(UsageError::Usage(
            "--bench-baseline needs --bench-record".into(),
        ));
    }
    Ok(Some(args))
}

/// Resolve a size name to a substrate config.
fn config_for(size: &str) -> Option<SubstrateConfig> {
    match size {
        "small" => Some(SubstrateConfig::small()),
        "default" => Some(SubstrateConfig::default()),
        "large" => Some(SubstrateConfig {
            topology: TopologyConfig::large(),
            ..Default::default()
        }),
        _ => None,
    }
}

/// The substrate config `--size` names (outside `--bench-record`).
fn size_config(args: &Args) -> Result<SubstrateConfig, UsageError> {
    config_for(args.size()).ok_or_else(|| {
        UsageError::Usage(format!(
            "unknown --size {:?} (small|default|large)",
            args.size()
        ))
    })
}

/// The sizes a `--bench-record` run covers, parsed from `--size` (comma
/// list; default all three). Unknown names are usage errors — nothing
/// here may silently fall back to `default`.
fn bench_sizes(args: &Args) -> Result<Vec<(&str, SubstrateConfig)>, UsageError> {
    let raw = args.size.as_deref().unwrap_or("small,default,large");
    let sizes: Vec<&str> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if sizes.is_empty() {
        return Err(UsageError::Usage(
            "--bench-record: --size lists no sizes".into(),
        ));
    }
    sizes
        .into_iter()
        .map(|s| match config_for(s) {
            Some(cfg) => Ok((s, cfg)),
            None => Err(UsageError::Usage(format!(
                "--bench-record: unknown size {s:?} (small|default|large)"
            ))),
        })
        .collect()
}

/// The `--bench-record` mode: one profiled map build per requested size,
/// one schema-versioned row appended to the trajectory file per build.
///
/// Counters are zeroed *after* each substrate build, so a row accounts
/// for the map build alone. Worker count defaults to 1 (unless
/// `--threads` was given) because allocator peaks are interleaving-
/// dependent: at one thread every count and byte in a row except
/// `build_ms`, `peak_rss_bytes`, and `shard_skew_x1000` reproduces
/// exactly for the same seed.
fn bench_record(args: &Args) -> Outcome {
    let sizes = bench_sizes(args)?;
    let bench_out = args.bench_out.as_deref().unwrap_or("BENCH_map_build.json");
    let prior_rows = read_trajectory(bench_out)?;
    let threads = args.threads.unwrap_or(1);
    let exec = ParallelExecutor::new(threads);
    itm_obs::alloc::set_enabled(true);
    itm_obs::set_enabled(true);
    let mut new_rows: Vec<serde_json::Value> = Vec::new();
    for (size, cfg) in sizes {
        let t0 = Instant::now();
        eprintln!(
            "bench-record: building substrate (size={size}, seed={})…",
            args.seed
        );
        let s = Substrate::build_with(cfg, args.seed, &exec).expect("valid config");
        eprintln!(
            "  substrate up [{:.1?}]; profiling map build…",
            t0.elapsed()
        );
        // Zero every counter now: the row measures the map build, not the
        // substrate generation before it.
        itm_obs::reset();
        itm_obs::alloc::reset();
        let t1 = Instant::now();
        let m = TrafficMap::build_with(&s, &MapConfig::default(), &exec).expect("map build");
        let build_ms = t1.elapsed().as_millis() as u64;
        let summary = MapSummary::extract(&s, &m);
        let report = itm_obs::snapshot();
        let resources = report.resources.clone().unwrap_or_default();
        let skew = report
            .histograms
            .get("exec.skew_x1000")
            .map(|h| h.max)
            .unwrap_or(0);
        let top_phases: Vec<serde_json::Value> = resources
            .top_phases(3)
            .into_iter()
            .map(|(name, p)| {
                serde_json::json!({
                    "phase": name,
                    "total_bytes": p.total_bytes,
                    "peak_bytes": p.peak_bytes,
                })
            })
            .collect();
        let peak_rss = match resources.peak_rss_bytes {
            Some(v) => serde_json::Value::from(v),
            None => serde_json::Value::Null,
        };
        eprintln!(
            "  {size}: build {build_ms} ms, tracked peak {} B (total {} B over {} allocs), \
             {} cells, skew x1000 = {skew}",
            resources.alloc.peak_bytes,
            resources.alloc.total_bytes,
            resources.alloc.allocs,
            summary.mapping_cells
        );
        new_rows.push(serde_json::json!({
            "schema_version": BENCH_SCHEMA_VERSION,
            "size": size,
            "seed": args.seed,
            "threads": threads as u64,
            "build_ms": build_ms,
            "peak_rss_bytes": peak_rss,
            "tracked_peak_bytes": resources.alloc.peak_bytes,
            "tracked_total_bytes": resources.alloc.total_bytes,
            "allocs": resources.alloc.allocs,
            "deallocs": resources.alloc.deallocs,
            "mapping_cells": summary.mapping_cells as u64,
            "user_prefixes": summary.user_prefixes.len() as u64,
            "route_edges": summary.route_edges as u64,
            "shard_skew_x1000": skew,
            "top_phases": top_phases,
        }));
    }
    append_bench_rows(bench_out, prior_rows, &new_rows);
    eprintln!(
        "bench-record: appended {} row(s) to {bench_out}",
        new_rows.len()
    );
    let regressed = match &args.bench_baseline {
        Some(baseline) => check_bench_regression(baseline, &new_rows)?,
        None => false,
    };
    Ok(ExitCode::from(u8::from(regressed)))
}

/// Preflight a bench trajectory before any build: the rows it already
/// holds (none when it is new, which the writability check leaves
/// empty), or the reason it cannot take more. A file that cannot be read,
/// or has another schema version or shape, is an error (exit 2, file
/// untouched), never rewritten.
fn read_trajectory(path: &str) -> Result<Vec<serde_json::Value>, UsageError> {
    require_writable_file(path)?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| UsageError::Plain(format!("{path}: cannot read existing trajectory: {e}")))?;
    if text.trim().is_empty() {
        return Ok(Vec::new());
    }
    let v: serde_json::Value = serde_json::from_str(&text).map_err(|e| {
        UsageError::Plain(format!(
            "{path}: existing trajectory is not valid JSON: {e}"
        ))
    })?;
    match v.get("schema_version").and_then(|s| s.as_u64()) {
        Some(BENCH_SCHEMA_VERSION) => {}
        other => {
            return Err(UsageError::Plain(format!(
                "{path}: trajectory schema_version {other:?} != {BENCH_SCHEMA_VERSION}"
            )))
        }
    }
    match v.get("rows").and_then(|r| r.as_array()) {
        Some(rows) => Ok(rows.clone()),
        None => Err(UsageError::Plain(format!(
            "{path}: trajectory has no rows array"
        ))),
    }
}

/// Write the trajectory: the rows [`read_trajectory`] found, then the new
/// ones, under the schema header.
fn append_bench_rows(path: &str, mut rows: Vec<serde_json::Value>, new_rows: &[serde_json::Value]) {
    rows.extend_from_slice(new_rows);
    let doc = serde_json::json!({
        "schema_version": BENCH_SCHEMA_VERSION,
        "rows": rows,
    });
    let text = serde_json::to_string_pretty(&doc).expect("serializable");
    std::fs::write(path, text).expect("write trajectory");
}

/// Compare freshly recorded rows against the latest matching-size row of
/// a baseline trajectory: true when peak tracked bytes grew more than
/// 10% at any size. Sizes absent from the baseline pass vacuously.
fn check_bench_regression(
    baseline_path: &str,
    new_rows: &[serde_json::Value],
) -> Result<bool, UsageError> {
    let what = "--bench-baseline";
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| UsageError::Plain(format!("{what}: cannot read {baseline_path}: {e}")))?;
    let v: serde_json::Value = serde_json::from_str(&text).map_err(|e| {
        UsageError::Plain(format!("{what}: {baseline_path} is not valid JSON: {e}"))
    })?;
    let empty = Vec::new();
    let base_rows = v.get("rows").and_then(|r| r.as_array()).unwrap_or(&empty);
    let mut regressed = false;
    for row in new_rows {
        let size = row.get("size").and_then(|s| s.as_str()).unwrap_or("");
        let new_peak = row
            .get("tracked_peak_bytes")
            .and_then(|p| p.as_u64())
            .unwrap_or(0);
        // Latest baseline row for this size wins.
        let base_peak = base_rows
            .iter()
            .filter(|r| r.get("size").and_then(|s| s.as_str()) == Some(size))
            .filter_map(|r| r.get("tracked_peak_bytes").and_then(|p| p.as_u64()))
            .next_back();
        let Some(base_peak) = base_peak else {
            eprintln!("bench-record: no baseline row for size={size}; skipping check");
            continue;
        };
        // >10% growth fails; integer math, no float drift.
        let limit = base_peak + base_peak / 10;
        if base_peak > 0 && new_peak > limit {
            eprintln!(
                "bench-record: REGRESSION at size={size}: peak tracked bytes \
                 {new_peak} > {limit} (baseline {base_peak} +10%)"
            );
            regressed = true;
        } else {
            eprintln!(
                "bench-record: size={size} peak tracked bytes {new_peak} \
                 within 10% of baseline {base_peak}"
            );
        }
    }
    Ok(regressed)
}

/// The snapshot path: explicit `--snapshot FILE` or `<out>/map.snap`.
fn snapshot_path(args: &Args) -> String {
    match &args.snapshot {
        Some(Some(path)) => path.clone(),
        _ => format!("{}/map.snap", args.out_dir),
    }
}

/// Open a snapshot; the error is `<context>cannot open snapshot …`.
fn open_snapshot(path: &str, context: &str) -> Result<Snapshot, UsageError> {
    Snapshot::open(path)
        .map_err(|e| UsageError::Plain(format!("{context}cannot open snapshot {path}: {e}")))
}

/// Write the snapshot of `map` to `path`, returning its size in bytes.
fn write_snapshot(s: &Substrate, map: &TrafficMap, path: &str) -> Result<u64, UsageError> {
    itm_core::write_snapshot(s, map, path)
        .map_err(|e| UsageError::Plain(format!("cannot write snapshot {path}: {e}")))
}

/// Resolve a PREFIX (`pfxN`, index or /24), SERVICE (`svcN`, index or
/// domain) or ASN (`asN` or index) argument, by its `tag`, against a
/// snapshot: an index must be below `n`, anything else is looked up by
/// `named`.
fn resolve(
    raw: &str,
    tag: &str,
    n: usize,
    named: impl FnOnce(&str) -> Option<u32>,
) -> Result<u32, UsageError> {
    let found = match raw.strip_prefix(tag).unwrap_or(raw).parse::<u32>() {
        Ok(i) => ((i as usize) < n).then_some(i),
        Err(_) => named(raw),
    };
    let what = match tag {
        "pfx" => "prefix",
        "svc" => "service",
        _ => "ASN",
    };
    found.ok_or_else(|| UsageError::Usage(format!("cannot resolve {what} {raw:?}")))
}

/// The `--query` mode (`--explain` is its point lookup): open the
/// snapshot and answer one lookup, exiting 0 on a hit, 1 when the query
/// is well-formed but the map asserts nothing, and 2 on unresolvable
/// arguments or an unopenable (missing, corrupted, foreign-version)
/// snapshot. Never builds a substrate — the whole point of the serving
/// layer is that queries cost microseconds.
fn run_query(args: &Args, spec: &[String]) -> Outcome {
    let snap = open_snapshot(&snapshot_path(args), "")?;
    let found = match spec[0].as_str() {
        "point" => {
            let prefix = PrefixId(resolve(&spec[1], "pfx", snap.n_prefixes(), |r| {
                Some(snap.find_prefix(r.parse().ok()?)?.raw())
            })?);
            let service = ServiceId(resolve(&spec[2], "svc", snap.n_services(), |r| {
                Some(snap.service_named(r)?.raw())
            })?);
            let net = snap
                .prefix_net(prefix)
                .map(|n| n.to_string())
                .unwrap_or_default();
            let client_as = snap.prefix_owner(prefix).map(|a| a.raw()).unwrap_or(0);
            let domain = snap.domain_of(service).unwrap_or("").to_string();
            match snap.point(service, prefix) {
                Some(ans) => {
                    let front = match ans.front_as {
                        Some(a) => format!("AS{}", a.raw()),
                        None => "unknown AS".into(),
                    };
                    println!(
                        "pfx{} ({net}, client AS{client_as}) × svc{} ({domain}) → {} ({front})",
                        prefix.raw(),
                        service.raw(),
                        ans.addr
                    );
                    println!("  techniques: {}", ans.techniques().join(", "));
                    true
                }
                None => {
                    eprintln!(
                        "no cell asserted for pfx{} ({net}) × svc{} ({domain})",
                        prefix.raw(),
                        service.raw()
                    );
                    false
                }
            }
        }
        "reverse" => {
            let Ok(addr) = spec[1].parse::<itm_types::Ipv4Addr>() else {
                return Err(UsageError::Usage(format!(
                    "cannot parse address {:?}",
                    spec[1]
                )));
            };
            let cells = snap.reverse(addr);
            for (service, prefix) in &cells {
                println!(
                    "svc{} ({}) × pfx{} ({})",
                    service.raw(),
                    snap.domain_of(*service).unwrap_or(""),
                    prefix.raw(),
                    snap.prefix_net(*prefix)
                        .map(|n| n.to_string())
                        .unwrap_or_default()
                );
            }
            match snap.front_as_of(addr) {
                Some(a) => eprintln!(
                    "{addr} (front AS{}): serves {} cell(s)",
                    a.raw(),
                    cells.len()
                ),
                None => eprintln!("{addr}: serves {} cell(s)", cells.len()),
            }
            !cells.is_empty()
        }
        // Shape was validated at parse time, so this arm is "route".
        _ => {
            let asn = |raw: &str| resolve(raw, "as", snap.n_ases(), |_| None).map(itm_types::Asn);
            let a = asn(&spec[1])?;
            match spec.get(2) {
                Some(raw_b) => {
                    let b = asn(raw_b)?;
                    match snap.edge(a, b) {
                        Some(code) => {
                            println!(
                                "AS{} → AS{}: {}",
                                a.raw(),
                                b.raw(),
                                itm_types::snap::rel::name(code).unwrap_or("?")
                            );
                            true
                        }
                        None => {
                            eprintln!("no edge AS{} → AS{}", a.raw(), b.raw());
                            false
                        }
                    }
                }
                None => {
                    let nbrs: Vec<_> = snap.neighbors(a).collect();
                    for (nbr, code) in &nbrs {
                        println!(
                            "AS{} {}",
                            nbr.raw(),
                            itm_types::snap::rel::name(*code).unwrap_or("?")
                        );
                    }
                    eprintln!("AS{}: {} neighbor(s)", a.raw(), nbrs.len());
                    !nbrs.is_empty()
                }
            }
        }
    };
    Ok(ExitCode::from(u8::from(!found)))
}

/// The `--bench-query` mode: build the map once at `--size` (default
/// `default`), serialize it, open the snapshot, and time a deterministic
/// mix of ~2M point lookups (half sampled from live cells, half uniform
/// over the id space). One schema-versioned row lands in the
/// `BENCH_query.json` trajectory (`--bench-out` overrides the path).
///
/// The query list is pre-generated from the run seed so the timed loop
/// measures lookups only, and the same seed replays the same mix.
fn bench_query(args: &Args) -> Outcome {
    use rand::Rng;
    let bench_out = args.bench_out.as_deref().unwrap_or("BENCH_query.json");
    let prior_rows = read_trajectory(bench_out)?;
    let cfg = size_config(args)?;
    let threads = args.threads();
    let t0 = Instant::now();
    eprintln!(
        "bench-query: building substrate (size={}, seed={})…",
        args.size(),
        args.seed
    );
    let exec = ParallelExecutor::new(threads);
    let s = Substrate::build_with(cfg, args.seed, &exec).expect("valid config");
    eprintln!(
        "  substrate up [{:.1?}]; building map ({threads} threads)…",
        t0.elapsed()
    );
    let map = TrafficMap::build_with(&s, &MapConfig::default(), &exec).expect("map build");
    eprintln!("  map built [{:.1?}]; serializing snapshot…", t0.elapsed());
    let bytes = itm_core::snapshot_bytes(&s, &map);
    let snapshot_bytes_len = bytes.len() as u64;
    let snap = Snapshot::from_bytes(bytes).expect("fresh snapshot validates");
    let n_cells = snap.n_cells();
    let n_services = snap.n_services() as u32;
    let n_prefixes = snap.n_prefixes() as u32;

    const N_QUERIES: usize = 2_000_000;
    let mut rng = itm_types::SeedDomain::new(args.seed).rng("bench.query");
    let mut queries: Vec<(u32, u32)> = Vec::with_capacity(N_QUERIES);
    for k in 0..N_QUERIES {
        if k % 2 == 0 && n_cells > 0 {
            // A live cell: guaranteed hit.
            let (service, prefix, _) = snap
                .cell(rng.gen_range(0..n_cells))
                .expect("index in range");
            queries.push((service.raw(), prefix.raw()));
        } else {
            // Uniform over the id space: overwhelmingly misses.
            queries.push((rng.gen_range(0..n_services), rng.gen_range(0..n_prefixes)));
        }
    }

    eprintln!("  timing {N_QUERIES} point lookups…");
    let t1 = Instant::now();
    let mut hits = 0u64;
    for &(service, prefix) in &queries {
        if let Some(ans) = snap.point(ServiceId(service), PrefixId(prefix)) {
            hits += 1;
            std::hint::black_box(ans.addr.0);
        }
    }
    let elapsed = t1.elapsed();
    let qps = (N_QUERIES as f64 / elapsed.as_secs_f64()) as u64;
    eprintln!(
        "  {qps} queries/sec ({N_QUERIES} lookups, {hits} hits, {} ms) \
         over a {snapshot_bytes_len} byte snapshot of {n_cells} cells",
        elapsed.as_millis()
    );
    append_bench_rows(
        bench_out,
        prior_rows,
        &[serde_json::json!({
            "schema_version": BENCH_SCHEMA_VERSION,
            "size": args.size(),
            "seed": args.seed,
            "threads": threads as u64,
            "queries": N_QUERIES as u64,
            "elapsed_ms": elapsed.as_millis() as u64,
            "qps": qps,
            "hits": hits,
            "cells": n_cells as u64,
            "snapshot_bytes": snapshot_bytes_len,
        })],
    );
    eprintln!("bench-query: appended 1 row to {bench_out}");
    Ok(ExitCode::SUCCESS)
}

/// JSON null for `None`, the displayed value otherwise.
fn opt_json<T: std::fmt::Display>(v: Option<T>) -> serde_json::Value {
    match v {
        Some(x) => serde_json::Value::from(x.to_string()),
        None => serde_json::Value::Null,
    }
}

/// The `--diff` mode: open two snapshots, compute every cell and route
/// delta between them, write the deterministic `<out>/map_diff.json`,
/// and print a kind-by-kind tally. Unopenable snapshots (missing,
/// corrupted, foreign-version) and snapshots of different universes exit
/// 2; any computed diff — including an empty one — exits 0.
fn run_diff(args: &Args, path_a: &str, path_b: &str) -> Outcome {
    let a = open_snapshot(path_a, "--diff: ")?;
    let b = open_snapshot(path_b, "--diff: ")?;
    let diff = itm_serve::MapDiff::compute(&a, &b)
        .map_err(|e| UsageError::Plain(format!("--diff: {path_a} vs {path_b}: {e}")))?;
    ensure_out_dir(&args.out_dir)?;
    let cells: Vec<serde_json::Value> = diff
        .cells
        .iter()
        .map(|d| {
            serde_json::json!({
                "kind": d.kind(),
                "service": d.service.raw(),
                "domain": a.domain_of(d.service).unwrap_or(""),
                "prefix": d.prefix.raw(),
                "net": opt_json(a.prefix_net(d.prefix)),
                "old_addr": opt_json(d.old_addr),
                "new_addr": opt_json(d.new_addr),
                "old_techniques": d.old_techniques(),
                "new_techniques": d.new_techniques(),
            })
        })
        .collect();
    let routes: Vec<serde_json::Value> = diff
        .routes
        .iter()
        .map(|d| {
            serde_json::json!({
                "kind": d.kind(),
                "from": d.from.raw(),
                "to": d.to.raw(),
                "old_rel": opt_json(d.old_kind.and_then(itm_types::snap::rel::name)),
                "new_rel": opt_json(d.new_kind.and_then(itm_types::snap::rel::name)),
            })
        })
        .collect();
    let doc = serde_json::json!({
        "schema_version": BENCH_SCHEMA_VERSION,
        "seed": a.seed(),
        "a": path_a,
        "b": path_b,
        "cells": cells,
        "routes": routes,
    });
    let out = format!("{}/map_diff.json", args.out_dir);
    let text = serde_json::to_string_pretty(&doc).expect("serializable");
    std::fs::write(&out, text).expect("write diff report");
    for kind in ["added", "removed", "moved", "re-evidenced"] {
        println!("cells {kind}: {}", diff.n_cells_of_kind(kind));
    }
    println!("route deltas: {}", diff.routes.len());
    if diff.is_empty() {
        eprintln!("snapshots are identical; wrote empty delta to {out}");
    } else {
        eprintln!(
            "wrote {} cell and {} route delta(s) to {out}",
            diff.cells.len(),
            diff.routes.len()
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// The `--epochs` mode: one full build, then N epochs of deterministic
/// churn, each followed by an incremental rebuild of exactly the dirty
/// campaigns. Per-epoch rows land in `<out>/epoch_metrics.json`; with
/// `--snapshot` every epoch's map is serialized (the final epoch also to
/// the base path, so `--query` and `--diff` pick it up unadorned). With
/// `--epoch-verify`, every epoch also runs a from-scratch build and the
/// run stops (exit 1) unless the incremental map is byte-identical —
/// recording incremental-vs-full speedup rows to the `BENCH_epoch.json`
/// trajectory.
fn run_epochs(args: &Args, epochs: u32) -> Outcome {
    use itm_core::{apply_epoch, build_incremental, map_fingerprint};
    ensure_out_dir(&args.out_dir)?;
    let metrics_path = format!("{}/epoch_metrics.json", args.out_dir);
    require_writable_file(&metrics_path)?;
    let bench_out = args.bench_out.as_deref().unwrap_or("BENCH_epoch.json");
    let prior_rows = if args.epoch_verify {
        read_trajectory(bench_out)?
    } else {
        Vec::new()
    };
    let snap_base: Option<String> = args.snapshot.as_ref().map(|_| snapshot_path(args));
    if let Some(base) = &snap_base {
        require_writable_file(base)?;
    }
    let (plan_name, plan) = args
        .epoch_plan
        .clone()
        .unwrap_or_else(|| ("light".into(), EpochPlan::light()));
    let threads = args.threads();

    let cfg = size_config(args)?;
    let t0 = Instant::now();
    eprintln!(
        "building substrate (size={}, seed={})…",
        args.size(),
        args.seed
    );
    let exec = ParallelExecutor::new(threads);
    let mut s = Substrate::build_with(cfg, args.seed, &exec).expect("valid config");
    eprintln!("  substrate up [{:.1?}]", t0.elapsed());
    let map_cfg = MapConfig {
        faults: args.faults.clone(),
        ..Default::default()
    };

    let write_snap = |s: &Substrate, map: &TrafficMap, path: &str| -> Result<(), UsageError> {
        let n = write_snapshot(s, map, path)?;
        eprintln!("  wrote {path} ({n} bytes)");
        Ok(())
    };

    eprintln!("epoch 0: full build ({threads} threads, plan {plan_name})…");
    let t = Instant::now();
    let mut map = TrafficMap::build_with(&s, &map_cfg, &exec).expect("map build");
    let full0_ms = t.elapsed().as_millis() as u64;
    eprintln!(
        "  built [{} ms]: {} cells",
        full0_ms,
        map.user_mapping.mapping.len()
    );
    if let Some(base) = &snap_base {
        write_snap(&s, &map, &format!("{base}.epoch0"))?;
    }

    let row =
        |epoch: u32, actions: usize, dirty: Vec<&str>, ms: u64, s: &Substrate, map: &TrafficMap| {
            serde_json::json!({
                "epoch": u64::from(epoch),
                "actions": actions as u64,
                "dirty": dirty,
                "build_ms": ms,
                "mapping_cells": map.user_mapping.mapping.len() as u64,
                "fingerprint": format!("{:016x}", map_fingerprint(s, map)),
            })
        };
    let mut rows = vec![row(0, 0, Vec::new(), full0_ms, &s, &map)];
    let mut bench_rows: Vec<serde_json::Value> = Vec::new();

    for epoch in 1..=epochs {
        let (actions, dirty) = apply_epoch(&mut s, &plan, epoch);
        let t = Instant::now();
        map = build_incremental(&s, &map_cfg, &exec, map, &dirty).expect("incremental build");
        let inc_ms = t.elapsed().as_millis() as u64;
        eprintln!(
            "epoch {epoch}: {} mutation(s), dirty [{}], incremental rebuild {} ms",
            actions.len(),
            dirty.names().join(" "),
            inc_ms
        );
        rows.push(row(epoch, actions.len(), dirty.names(), inc_ms, &s, &map));
        if args.epoch_verify {
            let t = Instant::now();
            let full = TrafficMap::build_with(&s, &map_cfg, &exec).expect("map build");
            let full_ms = t.elapsed().as_millis() as u64;
            let identical = itm_core::snapshot_bytes(&s, &map)
                == itm_core::snapshot_bytes(&s, &full)
                && map_fingerprint(&s, &map) == map_fingerprint(&s, &full);
            if !identical {
                eprintln!(
                    "epoch {epoch}: INCREMENTAL MAP DIVERGED from the \
                     from-scratch rebuild (plan {plan_name}, seed {})",
                    args.seed
                );
                return Ok(ExitCode::FAILURE);
            }
            let speedup_x1000 = full_ms.saturating_mul(1000) / inc_ms.max(1);
            eprintln!(
                "  verified byte-identical; full rebuild {} ms (speedup x{}.{:03})",
                full_ms,
                speedup_x1000 / 1000,
                speedup_x1000 % 1000
            );
            bench_rows.push(serde_json::json!({
                "schema_version": BENCH_SCHEMA_VERSION,
                "size": args.size(),
                "seed": args.seed,
                "threads": threads as u64,
                "plan": plan_name.as_str(),
                "epoch": u64::from(epoch),
                "incremental_ms": inc_ms,
                "full_ms": full_ms,
                "speedup_x1000": speedup_x1000,
                "dirty": dirty.names(),
                "byte_identical": true,
            }));
        }
        if let Some(base) = &snap_base {
            write_snap(&s, &map, &format!("{base}.epoch{epoch}"))?;
        }
    }

    // The final epoch's snapshot also lands at the base path, so query
    // and diff tooling finds the freshest map without a suffix.
    if let Some(base) = &snap_base {
        write_snap(&s, &map, base)?;
    }

    let doc = serde_json::json!({
        "schema_version": BENCH_SCHEMA_VERSION,
        "size": args.size(),
        "seed": args.seed,
        "threads": threads as u64,
        "plan": plan_name.as_str(),
        "epochs": u64::from(epochs),
        "rows": rows,
    });
    let text = serde_json::to_string_pretty(&doc).expect("serializable");
    std::fs::write(&metrics_path, text).expect("write epoch metrics");
    eprintln!("wrote {metrics_path}");
    if args.epoch_verify {
        append_bench_rows(bench_out, prior_rows, &bench_rows);
        eprintln!(
            "epochs: appended {} row(s) to {bench_out}",
            bench_rows.len()
        );
    }
    eprintln!(
        "ran {epochs} epoch(s) under plan {plan_name} [total {:.1?}]",
        t0.elapsed()
    );
    Ok(ExitCode::SUCCESS)
}

/// Resolve a `--audit` sub-option string: a comma list of `key=value`
/// pairs where the only recognized key is `out` (the report path).
/// Returns the explicit output path, if one was given.
fn parse_audit_out(spec: &str) -> Result<Option<String>, UsageError> {
    let mut out = None;
    for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        match part.split_once('=') {
            Some(("out", path)) if !path.is_empty() => out = Some(path.to_string()),
            _ => {
                return Err(UsageError::Usage(format!(
                    "--audit: unknown sub-option {part:?} (expected out=FILE)"
                )))
            }
        }
    }
    Ok(out)
}

/// Create the output directory and verify it is actually writable
/// (`create_dir_all` succeeds on an existing read-only directory).
fn ensure_out_dir(dir: &str) -> Result<(), UsageError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| UsageError::Plain(format!("cannot create output dir {dir}: {e}")))?;
    let probe = format!("{dir}/.write_probe");
    std::fs::write(&probe, b"")
        .map_err(|e| UsageError::Plain(format!("output dir {dir} is not writable: {e}")))?;
    let _ = std::fs::remove_file(&probe);
    Ok(())
}

/// Verify an output file path is writable before doing any expensive
/// work — the same preflight contract as `ensure_out_dir`, so `--trace
/// FILE` can no longer burn a full map build and then fail at the final
/// write. Opens in append mode so an existing file's contents survive a
/// later abort.
fn require_writable_file(path: &str) -> Result<(), UsageError> {
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map(drop)
        .map_err(|e| UsageError::Plain(format!("output file {path} is not writable: {e}")))
}

/// Turn tracing on for this process: virtual timestamps seeded from the
/// run seed, ring reset so event ids start from zero. The metrics registry
/// is enabled too so span enter/exit events appear as Chrome durations.
fn enable_tracing(seed: u64) {
    itm_obs::set_enabled(true);
    itm_obs::trace::set_seed(seed);
    itm_obs::trace::reset();
    itm_obs::trace::set_enabled(true);
}

/// Add the per-technique fault ledger (issued = observed + degraded +
/// lost) to a report as its `faults` key; a clean build adds no key.
fn add_fault_ledger(report: &mut serde_json::Value, map: &TrafficMap) {
    if map.fault_report.is_empty() {
        return;
    }
    if let serde_json::Value::Object(root) = report {
        let ledger = map.fault_report.iter().map(|(technique, st)| {
            let row = serde_json::json!({
                "issued": st.issued(),
                "observed": st.observed,
                "degraded": st.degraded,
                "lost": st.lost,
                "retries": st.retries,
            });
            (technique.clone(), row)
        });
        root.insert("faults".into(), serde_json::Value::Object(ledger.collect()));
    }
}

/// The default mode: build the substrate (and the map, when a selected
/// experiment needs it), then run the selected table rows and write
/// their CSVs and `summary.txt`.
fn run_experiments(args: &Args) -> Outcome {
    ensure_out_dir(&args.out_dir)?;
    let selected: Vec<&Experiment> = EXPERIMENTS.iter().filter(|e| args.selects(e.0)).collect();
    let builds_map = selected.iter().any(|e| e.1);
    // A snapshot and an audit need the assembled map, so `--exp` (when
    // given) must name a map-building experiment.
    let needs_map_build = |flag: &str| {
        UsageError::Usage(format!(
            "{flag} needs a map-building experiment ({}), got {:?}",
            experiment_ids(|e| e.1),
            args.exp.as_deref().unwrap_or_default()
        ))
    };

    // Resolve every output path and preflight it with the output dir:
    // each failure exits 2 before the substrate build.
    let snapshot_file = args.snapshot.as_ref().map(|_| snapshot_path(args));
    if let Some(path) = &snapshot_file {
        if !builds_map {
            return Err(needs_map_build("--snapshot"));
        }
        require_writable_file(path)?;
    }
    let trace_file = args.trace.as_ref().map(|t| {
        t.clone()
            .unwrap_or_else(|| format!("{}/trace.json", args.out_dir))
    });
    if let Some(path) = &trace_file {
        require_writable_file(path)?;
    }
    let audit_file = match &args.audit {
        Some(spec) => Some(
            parse_audit_out(spec.as_deref().unwrap_or(""))?
                .unwrap_or_else(|| format!("{}/map_quality.json", args.out_dir)),
        ),
        None => None,
    };
    if let Some(path) = &audit_file {
        if !builds_map {
            return Err(needs_map_build("--audit"));
        }
        require_writable_file(path)?;
    }

    if args.trace.is_some() {
        enable_tracing(args.seed);
    }

    if args.metrics {
        itm_obs::set_enabled(true);
        itm_obs::reset();
        // Metrics runs profile memory too: metrics.json gains a
        // `resources` section (peak RSS, tracked bytes, per-phase
        // attribution). Map bytes are unaffected either way.
        itm_obs::alloc::set_enabled(true);
        itm_obs::alloc::reset();
        // Pre-register the headline probe counters so metrics.json always
        // carries them (at zero) even when a run skips a technique.
        itm_obs::counter_with("probe.queries", &[("technique", "cache_probe")]);
        itm_obs::counter_with("probe.queries", &[("technique", "ecs_mapping")]);
        itm_obs::counter_with("probe.log_lines", &[("technique", "root_crawl")]);
        itm_obs::counter_with("probe.pings", &[("technique", "ipid_probe")]);
        itm_obs::counter_with("probe.connects", &[("technique", "tls_scan")]);
        itm_obs::counter_with("probe.connects", &[("technique", "sni_scan")]);
    }

    let cfg = size_config(args)?;
    let threads = args.threads();
    let exec = ParallelExecutor::new(threads);
    let t0 = Instant::now();
    eprintln!(
        "building substrate (size={}, seed={})…",
        args.size(),
        args.seed
    );
    let s = Substrate::build_with(cfg.clone(), args.seed, &exec).expect("valid config");
    eprintln!(
        "  {} ASes, {} links, {} /24s, {} services [{:.1?}]",
        s.topo.n_ases(),
        s.topo.links.len(),
        s.topo.prefixes.len(),
        s.catalog.len(),
        t0.elapsed()
    );

    // Experiments that need the full map share one build.
    let map = if builds_map {
        let t1 = Instant::now();
        let f = &args.faults;
        if f.is_off() {
            eprintln!("running measurement pipeline ({threads} threads)…");
        } else {
            eprintln!(
                "running measurement pipeline ({threads} threads, faults on: \
                 loss={} timeout={} refusal={} churn={} retries={})…",
                f.loss, f.timeout, f.refusal, f.churn, f.max_retries
            );
        }
        let map_cfg = MapConfig {
            faults: f.clone(),
            record_claims: audit_file.is_some(),
            ..Default::default()
        };
        let m = TrafficMap::build_with(&s, &map_cfg, &exec).expect("map build");
        eprintln!("  map built [{:.1?}]", t1.elapsed());
        Some(m)
    } else {
        None
    };

    // The map snapshot: a pure function of (substrate, map), so the file
    // is byte-identical at any thread count and any machine for one seed.
    if let (Some(path), Some(map)) = (&snapshot_file, &map) {
        let t = Instant::now();
        eprintln!("writing snapshot…");
        let n = write_snapshot(&s, map, path)?;
        eprintln!("  wrote {path} ({n} bytes) [{:.1?}]", t.elapsed());
    }

    // The quality audit: score every technique against ground truth and
    // write the schema-versioned report. Pure function of (substrate,
    // map), so it is byte-identical at any thread count; with --audit off
    // no artifact changes by a byte.
    if let (Some(path), Some(map)) = (&audit_file, &map) {
        let t = Instant::now();
        eprintln!("auditing map quality…");
        let q = itm_core::audit(&s, map);
        assert!(q.is_consistent(), "audit accounting invariant violated");
        let mut v = q.to_json_value();
        add_fault_ledger(&mut v, map);
        let text = serde_json::to_string_pretty(&v).expect("serializable");
        std::fs::write(path, text).expect("write audit report");
        eprintln!("  wrote {path} [{:.1?}]", t.elapsed());
    }

    let ctx = Ctx {
        s: &s,
        map: map.as_ref(),
        cfg: &cfg,
        seed: args.seed,
        exec: &exec,
        out_dir: &args.out_dir,
    };
    let mut results: Vec<ExperimentResult> = Vec::new();
    for (id, _, run) in selected {
        let t = Instant::now();
        eprintln!("running {id}…");
        results.push(run(&ctx));
        eprintln!("  done [{:.1?}]", t.elapsed());
    }

    if args.metrics {
        let mut v = itm_obs::snapshot().to_json();
        if let Some(map) = &map {
            add_fault_ledger(&mut v, map);
        }
        let path = format!("{}/metrics.json", args.out_dir);
        let text = serde_json::to_string_pretty(&v).expect("serializable");
        std::fs::write(&path, text).expect("write metrics");
        eprintln!("wrote {path}");
    }

    if let Some(path) = &trace_file {
        let snap = itm_obs::trace::snapshot();
        let v = itm_obs::chrome_trace(&snap);
        let text = serde_json::to_string(&v).expect("serializable");
        std::fs::write(path, text).expect("write trace");
        eprintln!(
            "wrote {path} ({} events, {} dropped; open in Perfetto or chrome://tracing)",
            snap.records.len(),
            snap.dropped_events
        );
    }

    // Emit.
    let mut summary = String::new();
    for r in &results {
        let path = format!("{}/{}.csv", args.out_dir, r.id);
        std::fs::write(&path, r.csv()).expect("write csv");
        let text = r.text();
        print!("\n{text}");
        summary.push('\n');
        summary.push_str(&text);
    }
    let mut f =
        std::fs::File::create(format!("{}/summary.txt", args.out_dir)).expect("create summary");
    writeln!(
        f,
        "itm repro — size={}, seed={}, total {:.1?}",
        args.size(),
        args.seed,
        t0.elapsed()
    )
    .unwrap();
    f.write_all(summary.as_bytes()).unwrap();
    eprintln!(
        "\nwrote {} experiment CSVs + summary.txt to {}/ [total {:.1?}]",
        results.len(),
        args.out_dir,
        t0.elapsed()
    );
    Ok(ExitCode::SUCCESS)
}

/// Dispatch to the one mode the command line asks for.
fn run() -> Outcome {
    let Some(args) = parse_args()? else {
        eprintln!("{}", usage());
        return Ok(ExitCode::SUCCESS);
    };
    if args.bench_record {
        bench_record(&args)
    } else if args.bench_query {
        bench_query(&args)
    } else if let Some(spec) = &args.query {
        // Read-only: opens the snapshot and answers, no build, no out dir.
        run_query(&args, spec)
    } else if let Some((a, b)) = &args.diff {
        run_diff(&args, a, b)
    } else if let Some(n) = args.epochs {
        run_epochs(&args, n)
    } else {
        run_experiments(&args)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => return code,
        Err(UsageError::Usage(msg)) => eprintln!("{msg}\n{}", usage()),
        Err(UsageError::Plain(msg)) => eprintln!("{msg}"),
    }
    ExitCode::from(2)
}
