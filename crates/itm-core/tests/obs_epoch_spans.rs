//! An incremental rebuild records the same per-stage spans as a full
//! build (both run the one map pipeline), so a light epoch's time can be
//! broken down on a single instrumented run. The resolver redeploy is one
//! of those spans; it stays cheap because the PoP-wide rate table behind
//! it (`resolver.pop_rates`) is built only on a PoP-scope probe, which no
//! map campaign sends.
//!
//! Route assembly is another: a light epoch recomputes only the routing
//! trees its link flaps can reach, and the
//! `routing.visibility.destinations_recomputed` counter shows whether it
//! did or silently fell back to the full pass. Anycast catchments follow
//! the same rule, counted by `routing.anycast.catchments_recomputed`.
//!
//! The snapshot writer splits its time the same way: claims, columns,
//! reverse index and checksum each record one span per call.
//!
//! The metrics registry is process-global, so the tests here take one
//! lock.

use itm_core::{apply_epoch, build_incremental, MapConfig, ParallelExecutor, TrafficMap};
use itm_measure::{Substrate, SubstrateConfig};
use itm_obs::MetricsReport;
use itm_routing::flapped_cones;
use itm_traffic::DeliveryMode;
use itm_types::epoch::EpochPlan;
use itm_types::{Asn, SimTime};
use std::sync::Mutex;

static OBS: Mutex<()> = Mutex::new(());

/// Entries of every span path ending in `name`.
fn span_count(report: &MetricsReport, name: &str) -> u64 {
    report
        .spans
        .iter()
        .filter(|(k, _)| k.rsplit('/').next() == Some(name))
        .map(|(_, s)| s.count)
        .sum()
}

/// Run `f` with metrics on and return what it recorded.
fn recorded(f: impl FnOnce()) -> MetricsReport {
    itm_obs::set_enabled(true);
    itm_obs::reset();
    f();
    let report = itm_obs::snapshot();
    itm_obs::set_enabled(false);
    report
}

#[test]
fn light_epoch_records_per_stage_spans() {
    let _lock = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = MapConfig::default();
    let exec = ParallelExecutor::sequential();
    let mut s = Substrate::build(SubstrateConfig::small(), 42).unwrap();
    let map = TrafficMap::build_with(&s, &cfg, &exec).expect("map build");
    let (_, dirty) = apply_epoch(&mut s, &EpochPlan::light(), 0);

    let report = recorded(|| {
        build_incremental(&s, &cfg, &exec, map, &dirty).expect("incremental build");
    });

    for key in [
        "map.build_incremental/services.scan/user_mapping.measure",
        "map.build_incremental/routes.assemble",
        "map.build_incremental/routes.assemble/routes.public_view",
        "map.build_incremental/routes.assemble/routes.cloud_probe",
    ] {
        assert!(report.spans.contains_key(key), "span {key} not recorded");
    }
    assert!(
        report
            .spans
            .keys()
            .any(|k| k.starts_with("map.build_incremental/") && k.ends_with("/resolver.deploy")),
        "no resolver.deploy span under the incremental build: {:?}",
        report.spans.keys().collect::<Vec<_>>()
    );
}

#[test]
fn map_builds_never_build_the_pop_rate_table() {
    let _lock = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = MapConfig::default();
    let exec = ParallelExecutor::sequential();
    let mut s = Substrate::build(SubstrateConfig::small(), 42).unwrap();

    let report = recorded(|| {
        let map = TrafficMap::build_with(&s, &cfg, &exec).expect("map build");
        let (_, dirty) = apply_epoch(&mut s, &EpochPlan::light(), 0);
        let map = build_incremental(&s, &cfg, &exec, map, &dirty).expect("light epoch");
        // Resolver churn dirties cache probing, so this epoch re-probes.
        let (_, dirty) = apply_epoch(&mut s, &EpochPlan::heavy(), 1);
        build_incremental(&s, &cfg, &exec, map, &dirty).expect("heavy epoch");
    });

    assert!(
        span_count(&report, "cache_probe.run") >= 2,
        "cache probing did not re-run"
    );
    assert_eq!(span_count(&report, "resolver.deploy"), 3);
    assert_eq!(span_count(&report, "resolver.pop_rates"), 0);
}

#[test]
fn pop_scope_probes_build_the_pop_rate_table_once() {
    let _lock = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let s = Substrate::build(SubstrateConfig::small(), 42).unwrap();
    let domain = &s
        .catalog
        .services
        .iter()
        .find(|svc| !svc.ecs_support)
        .expect("a PoP-scope service")
        .domain;

    let report = recorded(|| {
        let resolver = s.open_resolver().expect("open resolver");
        for r in s.topo.prefixes.iter() {
            resolver.probe(r.net, domain, SimTime(3600));
        }
    });

    assert_eq!(span_count(&report, "resolver.pop_rates"), 1);
}

#[test]
fn light_epochs_recompute_only_the_trees_a_flap_reaches() {
    let _lock = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = MapConfig::default();
    let exec = ParallelExecutor::sequential();
    let mut s = Substrate::build(SubstrateConfig::small(), 42).unwrap();
    let recomputed = |r: &MetricsReport| r.counter("routing.visibility.destinations_recomputed");

    let mut map = None;
    let full = recorded(|| map = Some(TrafficMap::build_with(&s, &cfg, &exec).expect("build")));
    assert_eq!(recomputed(&full), s.topo.n_ases() as u64);

    let mut map = map.expect("built");
    for epoch in 0..3 {
        let (_, dirty) = apply_epoch(&mut s, &EpochPlan::light(), epoch);
        let mut next = None;
        let light = recorded(|| {
            next = Some(build_incremental(&s, &cfg, &exec, map, &dirty).expect("light epoch"));
        });
        map = next.expect("rebuilt");
        assert!(
            recomputed(&light) < s.topo.n_ases() as u64,
            "epoch {epoch}: light epoch recomputed {} of {} destinations",
            recomputed(&light),
            s.topo.n_ases()
        );
    }
}

#[test]
fn light_epochs_recompute_only_the_catchments_a_flap_reaches() {
    let _lock = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = MapConfig::default();
    let exec = ParallelExecutor::sequential();
    let mut s = Substrate::build(SubstrateConfig::small(), 42).unwrap();
    let recomputed = |r: &MetricsReport| r.counter("routing.anycast.catchments_recomputed");
    // The origin ASes of every anycast deployment.
    let origins: Vec<Vec<Asn>> = s
        .catalog
        .services
        .iter()
        .filter(|svc| svc.mode == DeliveryMode::Anycast)
        .map(|svc| {
            let endpoints = s.frontends.endpoints(svc.id);
            endpoints
                .iter()
                .map(|e| e.offnet_host.unwrap_or(e.asn))
                .collect()
        })
        .collect();
    let anycast = origins.len() as u64;
    assert!(anycast > 0, "no anycast service to count");

    let mut map = None;
    let full = recorded(|| map = Some(TrafficMap::build_with(&s, &cfg, &exec).expect("build")));
    assert_eq!(recomputed(&full), anycast);

    // The small world has three anycast services, and a light epoch's
    // four flaps often reach all of them; so each epoch must recompute
    // exactly the services with an origin in a flapped cone, and the
    // epochs together fewer than every service every epoch.
    let epochs = 6;
    let mut total = 0;
    let mut map = map.expect("built");
    for epoch in 0..epochs {
        let before = s.topo.links_down().clone();
        let (_, dirty) = apply_epoch(&mut s, &EpochPlan::light(), epoch);
        let reach = flapped_cones(&s.topo, &s.full_view(), &before).expect("peering flaps");
        let reached = origins
            .iter()
            .filter(|o| o.iter().any(|a| reach[a.index()]))
            .count() as u64;
        let mut next = None;
        let light = recorded(|| {
            next = Some(build_incremental(&s, &cfg, &exec, map, &dirty).expect("light epoch"));
        });
        map = next.expect("rebuilt");
        assert_eq!(recomputed(&light), reached, "epoch {epoch}");
        total += recomputed(&light);
    }
    assert!(
        total < u64::from(epochs) * anycast,
        "{epochs} light epochs recomputed {total} catchments of {anycast} services"
    );
}

#[test]
fn snapshot_writer_records_each_phase_once() {
    let _lock = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let s = Substrate::build(SubstrateConfig::small(), 42).unwrap();
    let map = TrafficMap::build(&s, &MapConfig::default()).expect("map build");

    let report = recorded(|| {
        itm_core::snapshot_bytes(&s, &map);
    });

    for key in [
        "map.snapshot/map.claims",
        "map.snapshot/snapshot.columns",
        "map.snapshot/snapshot.reverse_index",
        "map.snapshot/snapshot.checksum",
    ] {
        let n = report.spans.get(key).map_or(0, |s| s.count);
        assert_eq!(n, 1, "span {key} recorded {n} times");
    }
}
