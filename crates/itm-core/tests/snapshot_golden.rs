//! Golden bytes for snapshot format v2.
//!
//! The CI `cmp` steps compare a snapshot against another run of the same
//! code, so a writer change that moved every byte the same way on every
//! thread count would pass them. These tests pin the `--size small
//! --seed 42` snapshot itself: its length and the whole-file checksum
//! stored in header bytes 16..24, with claim recording both off (the
//! writer rebuilds the claim tables) and on (it reuses the recorded
//! ones). The audit report's JSON, which reads the same claim tables, is
//! pinned by its FNV-1a 64 hash.
//!
//! A deliberate format change bumps `snap::VERSION` and re-records these
//! values; any other change that moves them is a bug. The move from v1 to
//! v2 changed only the checksum, so restamping the file as v1 must give
//! back the v1 checksum: only header bytes 8..12 (version) and 16..24
//! (checksum) moved. `map_fingerprint` digests the whole snapshot, header
//! included, so its values were re-recorded with the same bump.

use itm_core::{audit, map_fingerprint, snapshot_bytes, MapConfig, TrafficMap};
use itm_measure::{Substrate, SubstrateConfig};
use itm_types::FaultPlan;

/// Length of the `--size small --seed 42` snapshot in bytes.
const SNAPSHOT_LEN: usize = 481_816;
/// Its stored whole-file checksum (header bytes 16..24, little-endian).
const SNAPSHOT_CHECKSUM: u64 = 0x0e55_618c_1153_e279;
/// The checksum the same file carried as format v1 (FNV-1a 64 with the
/// field zeroed), recorded before the v2 bump.
const SNAPSHOT_V1_CHECKSUM: u64 = 0xff3e_e368_cbe1_3b63;
/// FNV-1a 64 of the compact JSON of the same map's quality audit.
const AUDIT_JSON_FNV: u64 = 0xeda8_27e5_49be_5556;

fn substrate() -> Substrate {
    Substrate::build(SubstrateConfig::small(), 42).expect("substrate")
}

fn map(s: &Substrate, record_claims: bool) -> TrafficMap {
    let cfg = MapConfig {
        record_claims,
        ..MapConfig::default()
    };
    TrafficMap::build(s, &cfg).expect("map build")
}

fn stored_checksum(bytes: &[u8]) -> u64 {
    let mut field = [0u8; 8];
    field.copy_from_slice(&bytes[16..24]);
    u64::from_le_bytes(field)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

fn assert_golden(bytes: &[u8]) {
    assert_eq!(
        (bytes.len(), stored_checksum(bytes)),
        (SNAPSHOT_LEN, SNAPSHOT_CHECKSUM),
        "snapshot v2 bytes moved: (len, checksum) = ({}, {:#018x})",
        bytes.len(),
        stored_checksum(bytes)
    );
}

#[test]
fn v2_moved_only_the_version_and_checksum_fields() {
    let s = substrate();
    let mut bytes = snapshot_bytes(&s, &map(&s, false));
    assert_eq!(&bytes[8..12], &2u32.to_le_bytes());
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    bytes[16..24].fill(0);
    let h = fnv1a(&bytes);
    assert_eq!(
        h, SNAPSHOT_V1_CHECKSUM,
        "snapshot body moved: fnv1a = {h:#018x}"
    );
}

#[test]
fn snapshot_with_rebuilt_claims_matches_golden() {
    let s = substrate();
    assert_golden(&snapshot_bytes(&s, &map(&s, false)));
}

#[test]
fn snapshot_with_recorded_claims_matches_golden() {
    let s = substrate();
    assert_golden(&snapshot_bytes(&s, &map(&s, true)));
}

#[test]
fn audit_json_matches_golden() {
    let s = substrate();
    let json = serde_json::to_string(&audit(&s, &map(&s, false)).to_json_value()).expect("json");
    let h = fnv1a(json.as_bytes());
    assert_eq!(h, AUDIT_JSON_FNV, "audit JSON moved: fnv1a = {h:#018x}");
}

/// `map_fingerprint` of the `--size small --seed 42` map with faults off.
/// The fingerprint also covers what the snapshot omits: the activity
/// estimates cache probing and the root crawl feed, the raw campaign
/// outputs and the fault accounting. As format v1 the same map gave
/// 0x7ab4_5c71_7253_c761.
const MAP_FINGERPRINT_FAULTS_OFF: u64 = 0x6fbb_528f_2e26_4261;
/// The same, with the light fault profile (0xd430_fe4d_dc6f_5da0 as v1).
const MAP_FINGERPRINT_FAULTS_LIGHT: u64 = 0x143d_0865_17bd_33e7;

fn fingerprint_with(faults: FaultPlan) -> u64 {
    let s = substrate();
    let cfg = MapConfig {
        faults,
        ..MapConfig::default()
    };
    map_fingerprint(&s, &TrafficMap::build(&s, &cfg).expect("map build"))
}

#[test]
fn map_fingerprint_with_faults_off_matches_golden() {
    let h = fingerprint_with(FaultPlan::off());
    assert_eq!(
        h, MAP_FINGERPRINT_FAULTS_OFF,
        "map fingerprint moved: {h:#018x}"
    );
}

#[test]
fn map_fingerprint_with_light_faults_matches_golden() {
    let h = fingerprint_with(FaultPlan::light());
    assert_eq!(
        h, MAP_FINGERPRINT_FAULTS_LIGHT,
        "map fingerprint moved: {h:#018x}"
    );
}
