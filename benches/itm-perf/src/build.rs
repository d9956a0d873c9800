//! The build workload, and the traced recomposition of the map build.
//!
//! `TrafficMap::build_with` is one opaque call. A traced pass builds the
//! map from the same public calls `build_with` makes, in the same order,
//! with a span, an allocation phase and a shard timer around each
//! campaign, then checks that the recomposed map's fingerprint equals
//! `build_with`'s on the same substrate.

use crate::trace::Tracer;
use crate::world::{world, Size};
use crate::{Pass, Scratch, MIN_OPS, THREADS};
use itm_core::{
    map_fingerprint, snapshot_bytes, write_snapshot, MapClaims, MapConfig, MapSummary,
    ParallelExecutor, TrafficMap,
};
use itm_measure::{ActivityEstimator, CloudProbeResult, Substrate, UserMapping};
use itm_routing::{AnycastDeployment, Catchments, CollectorSet};
use itm_serve::Snapshot;
use itm_tls::{detect_offnets, SniScan, TlsScan};
use itm_traffic::DeliveryMode;
use itm_types::{
    Asn, DomainTable, FaultInjector, FaultStats, Ipv4Addr, ItmError, Result, ServiceId,
};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// The campaigns that run sharded on the executor, each with the crate
/// it lives in.
pub const CAMPAIGNS: [(&str, &str); 8] = [
    ("measure", "cache_probe"),
    ("measure", "root_crawl"),
    ("measure", "activity"),
    ("tls", "tls_scan"),
    ("tls", "sni_scan"),
    ("measure", "user_mapping"),
    ("routing", "anycast"),
    ("measure", "cloud_probe"),
];

/// The layers of one recomposed build: the executor, plus the time the
/// layers took so far (the rest of the build is assembly).
struct Layers<'a> {
    tracer: &'a Tracer,
    exec: &'a ParallelExecutor,
    spent: Cell<f64>,
}

/// The executor as one campaign sees it, timing every shard it runs.
pub struct ShardTimer<'a> {
    exec: &'a ParallelExecutor,
    shards: Mutex<Vec<f64>>,
}

impl ShardTimer<'_> {
    /// A timer over `exec`.
    pub fn new(exec: &ParallelExecutor) -> ShardTimer<'_> {
        ShardTimer {
            exec,
            shards: Mutex::new(Vec::new()),
        }
    }

    /// `ParallelExecutor::map`, with each shard timed.
    pub fn map<T: Send>(&self, n: usize, job: &(dyn Fn(usize) -> T + Sync)) -> Vec<T> {
        self.exec.map(n, &|k| {
            let t = Instant::now();
            let out = job(k);
            let d = t.elapsed().as_secs_f64();
            self.shards
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(d);
            out
        })
    }
}

impl Layers<'_> {
    /// Run layer `krate.name` inside its span and allocation phase, and
    /// file its executor utilization.
    fn run<T>(&self, krate: &str, name: &str, f: impl FnOnce(&ShardTimer) -> T) -> T {
        let timer = ShardTimer::new(self.exec);
        let slot = itm_obs::alloc::register_phase(name);
        let t = Instant::now();
        let out = {
            let _span = self.tracer.span(&format!("{krate}.{name}"));
            let _phase = slot.map(itm_obs::alloc::enter_phase);
            f(&timer)
        };
        let wall = t.elapsed().as_secs_f64();
        self.spent.set(self.spent.get() + wall);
        if CAMPAIGNS.iter().any(|(_, c)| *c == name) {
            let shards = timer.shards.into_inner().unwrap_or_else(|e| e.into_inner());
            let busy: f64 = shards.iter().sum();
            let max = shards.iter().copied().fold(0.0, f64::max);
            let tr = self.tracer;
            tr.observe(&format!("exec.{name}.shards"), shards.len() as f64);
            tr.observe(&format!("exec.{name}.busy_s"), busy);
            let capacity = wall * self.exec.threads() as f64;
            tr.observe(&format!("exec.{name}.idle_s"), (capacity - busy).max(0.0));
            let skew = if busy > 0.0 {
                max * shards.len() as f64 / busy
            } else {
                1.0
            };
            tr.observe(&format!("exec.{name}.skew"), skew);
        }
        out
    }
}

/// The anycast catchments of every anycast service, one shard each, as
/// `build_with` computes them.
pub fn anycast_catchments(
    s: &Substrate,
    cfg: &MapConfig,
    x: &ShardTimer,
) -> BTreeMap<ServiceId, Catchments> {
    let full = s.full_view();
    let services: Vec<ServiceId> = s
        .catalog
        .services
        .iter()
        .filter(|svc| svc.mode == DeliveryMode::Anycast)
        .map(|svc| svc.id)
        .collect();
    x.map(services.len(), &|k| {
        let svc = services[k];
        let sites: Vec<(Asn, u32)> = s
            .frontends
            .endpoints(svc)
            .iter()
            .map(|e| (e.offnet_host.unwrap_or(e.asn), e.city))
            .collect();
        let dep = AnycastDeployment::new(&s.topo, &sites, cfg.anycast_noise);
        (
            svc,
            Catchments::compute(&s.topo, &full, &dep, &s.seeds.child("map-anycast")),
        )
    })
    .into_iter()
    .collect()
}

/// `TrafficMap::build_with`, recomposed from its public calls with every
/// layer traced. Yields the same map.
pub fn recompose(
    s: &Substrate,
    cfg: &MapConfig,
    exec: &ParallelExecutor,
    tracer: &Tracer,
) -> Result<TrafficMap> {
    let t0 = Instant::now();
    let layers = Layers {
        tracer,
        exec,
        spent: Cell::new(0.0),
    };
    let injector = |campaign: &str| FaultInjector::new(cfg.faults.clone(), &s.seeds, campaign);

    let resolver = layers
        .run("dns", "open_resolver", |_| s.open_resolver())
        .map_err(|e| ItmError::in_campaign("map.build", e))?;
    let cache_result = layers.run("measure", "cache_probe", |x| {
        cfg.cache_probe
            .run_with_faults(s, &resolver, &injector("cache_probe"), |n, job| {
                x.map(n, job)
            })
    });
    let root_result = layers.run("measure", "root_crawl", |x| {
        cfg.root_crawl
            .run_with_faults(s, &resolver, &injector("root_crawl"), |n, job| {
                x.map(n, job)
            })
    });
    let activity = layers.run("measure", "activity", |x| {
        ActivityEstimator::fuse_with(s, &cache_result, &root_result, |n, job| x.map(n, job))
    });
    let user_prefixes = cache_result.discovered.clone();

    let scan = layers.run("tls", "tls_scan", |x| {
        TlsScan::run_with_faults(
            &s.topo,
            &s.tls,
            &cfg.scan,
            &s.seeds,
            &injector("tls-scan"),
            |n, job| x.map(n, job),
        )
    });
    let (onnet_servers, offnet_servers) = detect_offnets(&s.topo, &s.tls, &scan);
    let candidates: Vec<Ipv4Addr> = scan.observations.iter().map(|o| o.addr).collect();
    let domains = DomainTable::from_names(s.catalog.services.iter().map(|x| &x.domain));
    let sni = layers.run("tls", "sni_scan", |x| {
        SniScan::run_with_faults(
            &s.tls,
            &candidates,
            &domains,
            &cfg.scan,
            &s.seeds,
            &injector("sni-scan"),
            |n, job| x.map(n, job),
        )
    });
    let sni_footprints: BTreeMap<ServiceId, Vec<Ipv4Addr>> = s
        .catalog
        .services
        .iter()
        .map(|svc| (svc.id, sni.addresses_of(&domains, &svc.domain).to_vec()))
        .collect();
    let user_mapping = layers.run("measure", "user_mapping", |x| {
        UserMapping::measure_with_faults(s, &resolver, &injector("user_mapping"), |n, job| {
            x.map(n, job)
        })
    });

    let catchments = layers.run("routing", "anycast", |x| anycast_catchments(s, cfg, x));
    let full = s.full_view();

    let collectors = CollectorSet::typical(&s.topo, &s.seeds);
    let (public_view, visibility) = layers.run("routing", "public_view", |_| {
        collectors.public_view(&s.topo)
    });
    let cloud_result = layers.run("measure", "cloud_probe", |x| {
        CloudProbeResult::run_with_faults(s, &full, &s.seeds, &injector("cloud_probe"), |n, job| {
            x.map(n, job)
        })
    });
    let extra = cloud_result.as_links(s);
    let route_view = public_view.with_extra_links(extra.iter());

    let mut fault_report: BTreeMap<String, FaultStats> = BTreeMap::new();
    if !cfg.faults.is_off() {
        fault_report.insert("cache_probe".into(), cache_result.fault_stats);
        fault_report.insert("root_crawl".into(), root_result.fault_stats);
        fault_report.insert("tls_scan".into(), scan.fault_stats);
        fault_report.insert("sni_scan".into(), sni.fault_stats);
        fault_report.insert("ecs_mapping".into(), user_mapping.fault_stats);
        fault_report.insert("cloud_probe".into(), cloud_result.fault_stats);
    }
    let mut map = TrafficMap {
        user_prefixes,
        activity,
        onnet_servers,
        offnet_servers,
        sni_footprints,
        user_mapping,
        catchments,
        route_view,
        visibility,
        cache_result,
        root_result,
        cloud_result,
        fault_report,
        claims: None,
    };
    if cfg.record_claims {
        map.claims = Some(MapClaims::record(s, &map));
    }
    let wall = t0.elapsed().as_secs_f64();
    tracer.observe("core.assemble_s", wall - layers.spent.get());
    tracer.observe("core.recompose_s", wall);
    Ok(map)
}

/// Run `f` with allocation tracking on, and file the peak and total bytes
/// of every phase it entered. Tracking costs a few atomic operations per
/// allocation, so no timed span runs inside it.
fn tracked<T>(tracer: &Tracer, f: impl FnOnce() -> T) -> T {
    itm_obs::alloc::reset();
    itm_obs::alloc::set_enabled(true);
    let out = f();
    itm_obs::alloc::set_enabled(false);
    for (name, st) in itm_obs::alloc::phase_stats() {
        tracer.observe(&format!("alloc.{name}.peak_mb"), st.peak_bytes as f64 / 1e6);
        tracer.observe(
            &format!("alloc.{name}.total_mb"),
            st.total_bytes as f64 / 1e6,
        );
    }
    out
}

/// A full map build: `build_with` untraced, the recomposition traced.
pub fn full_build(s: &Substrate, exec: &ParallelExecutor, tracer: &Tracer) -> Result<TrafficMap> {
    let cfg = MapConfig::default();
    if tracer.on() {
        recompose(s, &cfg, exec, tracer)
    } else {
        TrafficMap::build_with(s, &cfg, exec)
    }
}

/// Checks on a freshly built map, made outside any timer: its summary
/// must have the digest `expected.json` records for the world, and, once
/// per traced pass, the recomposed map must have `build_with`'s
/// fingerprint. That once, `build_with` and a second recomposition run
/// back to back for `core.recompose_gap_pct` (the first build of a process
/// runs slower), and a third runs with allocation tracking on for the
/// per-campaign bytes. Returns the number of failed checks.
pub fn check_map(
    s: &Substrate,
    map: &TrafficMap,
    size: Size,
    exec: &ParallelExecutor,
    tracer: &Tracer,
) -> Result<u64> {
    let mut failed = u64::from(crate::expected_digest(size) != Some(summary_digest(s, map)));
    if tracer.on() && !tracer.has("core.build_with_s") {
        let cfg = MapConfig::default();
        let plain = tracer.time("core.build_with", || TrafficMap::build_with(s, &cfg, exec))?;
        failed += u64::from(map_fingerprint(s, map) != map_fingerprint(s, &plain));
        drop(plain);
        recompose(s, &cfg, exec, tracer)?;
        let [.., plain_s] = tracer.observations("core.build_with_s")[..] else {
            unreachable!("build_with was just timed")
        };
        let [.., recomposed] = tracer.observations("core.recompose_s")[..] else {
            unreachable!("the build was just recomposed")
        };
        tracer.observe(
            "core.recompose_gap_pct",
            100.0 * (recomposed - plain_s) / plain_s,
        );
        tracked(tracer, || recompose(s, &cfg, exec, &Tracer::new(false, 0)))?;
    }
    Ok(failed)
}

/// Publish a map: serialize it to `path` and open it as a server would.
/// Untraced this is `write_snapshot` + `Snapshot::open`; traced, the same
/// two calls split into serialize, file write, read and validate.
pub fn publish(
    s: &Substrate,
    map: &TrafficMap,
    path: &str,
    tracer: &Tracer,
) -> std::result::Result<Snapshot, String> {
    if !tracer.on() {
        write_snapshot(s, map, path).map_err(|e| e.to_string())?;
        return Snapshot::open(path).map_err(|e| e.to_string());
    }
    if !tracer.has("alloc.snapshot_bytes.peak_mb") {
        tracked(tracer, || {
            let _phase =
                itm_obs::alloc::register_phase("snapshot_bytes").map(itm_obs::alloc::enter_phase);
            snapshot_bytes(s, map)
        });
    }
    let bytes = tracer.time("core.snapshot_bytes", || snapshot_bytes(s, map));
    tracer.observe("core.snapshot_mb", bytes.len() as f64 / 1e6);
    tracer
        .time("core.snapshot_file_write", || std::fs::write(path, &bytes))
        .map_err(|e| format!("{path}: {e}"))?;
    drop(bytes);
    open(path, tracer)
}

/// `Snapshot::open`; traced, split into the read and the validation.
pub fn open(path: &str, tracer: &Tracer) -> std::result::Result<Snapshot, String> {
    if !tracer.on() {
        return Snapshot::open(path).map_err(|e| e.to_string());
    }
    let bytes = tracer
        .time("serve.read", || std::fs::read(path))
        .map_err(|e| format!("{path}: {e}"))?;
    tracer
        .time("serve.validate", || Snapshot::from_bytes(bytes))
        .map_err(|e| e.to_string())
}

/// FNV-1a of the map's JSON summary: the digest `expected.json` records.
pub fn summary_digest(s: &Substrate, map: &TrafficMap) -> String {
    let json = MapSummary::extract(s, map)
        .to_json()
        .unwrap_or_else(|e| format!("unserializable summary: {e}"));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Build the world `MIN_SETUPS` times; the median is `setup_s`.
pub fn setup_world(size: Size, tracer: &Tracer, pass: &mut Pass) -> Result<Substrate> {
    let mut last = None;
    for _ in 0..crate::MIN_SETUPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(tracer.time("measure.substrate_build", || world(size))?);
        pass.setup_s.push(t.elapsed().as_secs_f64());
    }
    last.ok_or_else(|| ItmError::config("setup", "no world built"))
}

/// The build workload: the cold publish path — `build_with` at two
/// threads, `write_snapshot`, `Snapshot::open` — repeated for `seconds`.
/// One operation is one trip down that path; every map built must be the
/// recorded one.
pub fn build_pass(
    size: Size,
    seconds: f64,
    tracer: &Tracer,
    scratch: &Scratch,
) -> Result<(Pass, Substrate, TrafficMap)> {
    let mut pass = Pass::default();
    let s = setup_world(size, tracer, &mut pass)?;
    let exec = ParallelExecutor::new(THREADS);
    let path = scratch.file("build.snap");
    let mut last = None;
    let started = Instant::now();
    while pass.op_s.len() < MIN_OPS || started.elapsed().as_secs_f64() < seconds {
        drop(last.take());
        pass.attempted += 1;
        let t = Instant::now();
        let map = full_build(&s, &exec, tracer)?;
        let snap = publish(&s, &map, &path, tracer).map_err(|e| ItmError::config("publish", e))?;
        pass.op_s.push(t.elapsed().as_secs_f64());
        let whole = snap.n_cells() == map.user_mapping.mapping.len();
        drop(snap);
        let bad = check_map(&s, &map, size, &exec, tracer)?;
        pass.failed += u64::from(bad > 0 || !whole);
        last = Some(map);
    }
    pass.ops = pass.op_s.len() as u64;
    pass.wall_s = pass.op_s.iter().sum();
    let map = last.ok_or_else(|| ItmError::config("build", "no cycle ran"))?;
    Ok((pass, s, map))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recomposed_build_is_build_with() {
        let s = world(Size::Small).expect("world");
        let exec = ParallelExecutor::new(THREADS);
        let tracer = Tracer::new(true, 0);
        let cfg = MapConfig::default();
        let map = recompose(&s, &cfg, &exec, &tracer).expect("recomposed");
        let plain = TrafficMap::build_with(&s, &cfg, &exec).expect("build_with");
        assert_eq!(map_fingerprint(&s, &map), map_fingerprint(&s, &plain));
        for (krate, name) in CAMPAIGNS {
            assert!(tracer.has(&format!("{krate}.{name}_s")), "{name} untimed");
            assert!(
                tracer.has(&format!("exec.{name}.busy_s")),
                "{name} shards untimed"
            );
        }
    }
}
