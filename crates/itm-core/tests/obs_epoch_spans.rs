//! An incremental rebuild records the same per-stage spans as a full
//! build (both run the one map pipeline), so a light epoch's time can be
//! broken down on a single instrumented run — the resolver redeploy
//! included.

use itm_core::{apply_epoch, build_incremental, MapConfig, ParallelExecutor, TrafficMap};
use itm_measure::{Substrate, SubstrateConfig};
use itm_types::epoch::EpochPlan;

#[test]
fn light_epoch_records_per_stage_spans() {
    let cfg = MapConfig::default();
    let exec = ParallelExecutor::sequential();
    let mut s = Substrate::build(SubstrateConfig::small(), 42).unwrap();
    let map = TrafficMap::build_with(&s, &cfg, &exec).expect("map build");
    let (_, dirty) = apply_epoch(&mut s, &EpochPlan::light(), 0);

    itm_obs::set_enabled(true);
    itm_obs::reset();
    build_incremental(&s, &cfg, &exec, map, &dirty).expect("incremental build");
    let report = itm_obs::snapshot();
    itm_obs::set_enabled(false);

    for key in [
        "map.build_incremental/services.scan/user_mapping.measure",
        "map.build_incremental/routes.assemble",
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
