//! The snapshot writer holds about one file's worth of memory.
//!
//! `snapshot_bytes` lays the file out first and encodes every column
//! straight into it, so besides the file it keeps only per-run,
//! per-prefix and per-service tables and the claim bits. A column built
//! in a `Vec` of its own before it reaches the file pushes the peak past
//! the 1.4× this test allows.
//!
//! One test in its own binary: the allocator counters are process-wide.

use itm_core::{snapshot_bytes, MapConfig, TrafficMap};
use itm_measure::{Substrate, SubstrateConfig};
use itm_obs::alloc;

#[global_allocator]
static ALLOC: alloc::TrackingAlloc = alloc::TrackingAlloc::new();

#[test]
fn snapshot_bytes_peaks_below_1_4x_the_file() {
    let s = Substrate::build(SubstrateConfig::small(), 42).expect("substrate");
    let map = TrafficMap::build(&s, &MapConfig::default()).expect("map build");

    alloc::reset();
    alloc::set_enabled(true);
    let bytes = {
        let _phase = alloc::register_phase("snapshot_bytes").map(alloc::enter_phase);
        snapshot_bytes(&s, &map)
    };
    alloc::set_enabled(false);
    let (_, phase) = alloc::phase_stats()
        .into_iter()
        .find(|(name, _)| name == "snapshot_bytes")
        .expect("phase registered");

    let ratio = phase.peak_bytes as f64 / bytes.len() as f64;
    assert!(
        ratio <= 1.4,
        "snapshot_bytes peaked at {} B for a {} B file ({ratio:.2}x)",
        phase.peak_bytes,
        bytes.len()
    );
}
