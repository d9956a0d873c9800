//! The epoch workload: the write path of the continuous map.
//!
//! One full build, then light-churn epochs — `apply_epoch` then
//! `build_incremental` — for the run's duration. After the last epoch,
//! outside the timer, the incremental map must have the fingerprint of a
//! from-scratch `build_with` of the churned substrate.
//!
//! `build_incremental` is opaque, so a traced pass attributes one epoch by
//! a shadow replay: after the timed update it re-runs the public call of
//! each dirty campaign on the same substrate, and what the replays do not
//! cover is `epoch.unattributed_s`.

use crate::build::{anycast_catchments, check_map, full_build, publish, setup_world, ShardTimer};
use crate::trace::Tracer;
use crate::world::Size;
use crate::{Pass, Scratch, THREADS};
use itm_core::{
    apply_epoch, build_incremental, map_fingerprint, MapConfig, ParallelExecutor, TrafficMap,
};
use itm_measure::{CloudProbeResult, Substrate, UserMapping};
use itm_routing::CollectorSet;
use itm_serve::{MapDiff, Snapshot};
use itm_types::epoch::{Campaign, DirtySet, EpochPlan};
use itm_types::{FaultInjector, ItmError, Result};
use std::time::Instant;

/// Epochs one run measures at least.
const MIN_EPOCHS: usize = 6;

/// Apply epoch `epoch` of the light plan and rebuild incrementally; the
/// operation the workload times.
fn update(
    s: &mut Substrate,
    map: TrafficMap,
    epoch: u32,
    exec: &ParallelExecutor,
    tracer: &Tracer,
) -> Result<(TrafficMap, DirtySet)> {
    let (_, dirty) = tracer.time("core.apply_epoch", || {
        apply_epoch(s, &EpochPlan::light(), epoch)
    });
    let map = tracer.time("core.build_incremental", || {
        build_incremental(s, &MapConfig::default(), exec, map, &dirty)
    })?;
    tracer.observe("core.epoch.dirty_campaigns", dirty.campaigns.len() as f64);
    tracer.observe("core.epoch.dirty_services", dirty.services.len() as f64);
    Ok((map, dirty))
}

/// The epoch workload. The run seed picks which epochs of the plan's
/// churn are applied: a thousand epochs per seed, from the first.
/// Returns the pass, the churned world, its map and the last epoch
/// applied.
pub fn epoch_pass(
    size: Size,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
) -> Result<(Pass, Substrate, TrafficMap, u32)> {
    let mut pass = Pass::default();
    let mut s = setup_world(size, tracer, &mut pass)?;
    let exec = ParallelExecutor::new(THREADS);
    let mut map = full_build(&s, &exec, tracer)?;
    let bad = check_map(&s, &map, size, &exec, tracer)?;
    let started = Instant::now();
    let mut epoch = (seed % 4_000_000) as u32 * 1000;
    while pass.op_s.len() < MIN_EPOCHS || started.elapsed().as_secs_f64() < seconds {
        epoch += 1;
        pass.attempted += 1;
        let t = Instant::now();
        map = update(&mut s, map, epoch, &exec, tracer)?.0;
        pass.op_s.push(t.elapsed().as_secs_f64());
    }
    pass.ops = pass.op_s.len() as u64;
    pass.wall_s = pass.op_s.iter().sum();

    // The incremental map must be the map a from-scratch build makes.
    pass.attempted += 1;
    let full = TrafficMap::build_with(&s, &MapConfig::default(), &exec)?;
    let same = map_fingerprint(&s, &map) == map_fingerprint(&s, &full);
    pass.failed += u64::from(!same || bad > 0);
    Ok((pass, s, map, epoch))
}

/// One traced epoch with its shadow replay, between two published
/// snapshots whose diff is timed. Returns the new map, its snapshot and
/// the failed checks.
pub fn epoch_tour(
    s: &mut Substrate,
    map: TrafficMap,
    epoch: u32,
    tracer: &Tracer,
    scratch: &Scratch,
) -> Result<(TrafficMap, Snapshot, u64)> {
    let exec = ParallelExecutor::new(THREADS);
    let publish_to = |s: &Substrate, map: &TrafficMap, name: &str| {
        publish(s, map, &scratch.file(name), tracer).map_err(|e| ItmError::config("publish", e))
    };
    let before = publish_to(s, &map, "tour-before.snap")?;
    let (map, dirty) = update(s, map, epoch, &exec, tracer)?;
    let incremental = *tracer
        .observations("core.build_incremental_s")
        .last()
        .unwrap_or(&0.0);
    let replayed = shadow_replay(s, &dirty, &exec, tracer)?;
    tracer.observe("epoch.unattributed_s", incremental - replayed);
    let after = publish_to(s, &map, "tour-after.snap")?;
    let diff = tracer.time("serve.diff", || MapDiff::compute(&before, &after));
    Ok((map, after, u64::from(diff.is_err())))
}

/// Re-run the public call of each campaign `dirty` names, timing each;
/// returns the time they took together.
fn shadow_replay(
    s: &Substrate,
    dirty: &DirtySet,
    exec: &ParallelExecutor,
    tracer: &Tracer,
) -> Result<f64> {
    let cfg = MapConfig::default();
    let injector = |campaign: &str| FaultInjector::new(cfg.faults.clone(), &s.seeds, campaign);
    let x = ShardTimer::new(exec);
    let timed = |name: &str, on: bool, f: &dyn Fn()| {
        let t = Instant::now();
        if on {
            f();
        }
        let d = if on { t.elapsed().as_secs_f64() } else { 0.0 };
        tracer.observe(&format!("epoch.{name}_s"), d);
        d
    };
    let t = Instant::now();
    let resolver = s
        .open_resolver()
        .map_err(|e| ItmError::in_campaign("epoch.shadow", e))?;
    let resolver_s = t.elapsed().as_secs_f64();
    tracer.observe("epoch.open_resolver_s", resolver_s);
    let mapping = timed(
        "user_mapping_subset",
        dirty.is_dirty(Campaign::UserMapping),
        &|| {
            let faults = injector("user_mapping");
            // No named services means the grid was invalidated wholesale.
            let _ = if dirty.services.is_empty() {
                UserMapping::measure_with_faults(s, &resolver, &faults, |n, job| x.map(n, job))
            } else {
                UserMapping::measure_subset_with_faults(
                    s,
                    &resolver,
                    &dirty.services,
                    &faults,
                    |n, job| x.map(n, job),
                )
            };
        },
    );
    let anycast = timed("anycast", dirty.is_dirty(Campaign::Anycast), &|| {
        let _ = anycast_catchments(s, &cfg, &x);
    });
    let routes = timed("routes", dirty.is_dirty(Campaign::Routes), &|| {
        let full = s.full_view();
        let _ = CollectorSet::typical(&s.topo, &s.seeds).public_view(&s.topo);
        let _ = CloudProbeResult::run_with_faults(
            s,
            &full,
            &s.seeds,
            &injector("cloud_probe"),
            |n, job| x.map(n, job),
        );
    });
    Ok(resolver_s + mapping + anycast + routes)
}
