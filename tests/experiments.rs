//! Integration tests over the experiment harness: every E1–E14 experiment
//! must run on a small substrate and reproduce the paper's qualitative
//! claims (orderings and directions, not absolute values).

use itm_bench::{ablations, experiments};
use itm_core::{MapConfig, MapSummary, ParallelExecutor, TrafficMap};
use itm_measure::{Substrate, SubstrateConfig};

use std::sync::OnceLock;

/// The map build is the expensive part; all tests share one fixture.
fn setup() -> &'static (Substrate, TrafficMap) {
    static FIXTURE: OnceLock<(Substrate, TrafficMap)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let s = Substrate::build(SubstrateConfig::small(), 2024).expect("valid config");
        let map = TrafficMap::build(&s, &MapConfig::default()).expect("map build");
        (s, map)
    })
}

fn value_of(r: &itm_bench::ExperimentResult, key_part: &str) -> String {
    r.headline
        .iter()
        .find(|(k, _)| k.contains(key_part))
        .unwrap_or_else(|| panic!("{} missing headline {key_part}", r.id))
        .1
        .clone()
}

fn pct_of(r: &itm_bench::ExperimentResult, key_part: &str) -> f64 {
    value_of(r, key_part)
        .trim_end_matches('%')
        .parse()
        .expect("percentage")
}

#[test]
fn all_experiments_produce_csv() {
    let (s, map) = {
        let f = setup();
        (&f.0, &f.1)
    };
    let all = vec![
        experiments::table1(s, map),
        experiments::fig1a(s, map),
        experiments::fig1b(s, map),
        experiments::fig2(s, map),
        experiments::coverage_claims(s, map),
        experiments::ecs(s, map),
        experiments::pathlen(s),
        experiments::anycast(s),
        experiments::pathpred(s),
        experiments::recommend(s),
        experiments::ipid(s),
        experiments::visibility(s),
        experiments::consolidation(s),
        experiments::cachehost(s),
    ];
    assert_eq!(all.len(), 14);
    for r in &all {
        assert!(!r.csv_rows.is_empty(), "{} has no rows", r.id);
        assert!(!r.headline.is_empty(), "{} has no headline", r.id);
        // CSV rows have the same number of fields as the header
        // (quoted commas only appear in table1's prose fields).
        if r.id != "table1" {
            let n = r.csv_header.split(',').count();
            for row in &r.csv_rows {
                assert_eq!(row.split(',').count(), n, "{}: {row}", r.id);
            }
        }
        let text = r.text();
        assert!(text.contains(r.id));
    }
}

#[test]
fn coverage_experiment_reproduces_paper_ordering() {
    let (s, map) = {
        let f = setup();
        (&f.0, &f.1)
    };
    let r = experiments::coverage_claims(s, map);
    let cache = pct_of(&r, "cache probing");
    let root = pct_of(&r, "root logs");
    let union = pct_of(&r, "union");
    let fdr = pct_of(&r, "false discovery");
    assert!(cache > root, "cache {cache} vs root {root}");
    assert!(union >= cache);
    assert!(cache > 75.0);
    assert!(fdr < 2.0);
}

#[test]
fn pathlen_experiment_shows_the_swing() {
    let s = &setup().0;
    let r = experiments::pathlen(s);
    let unweighted = pct_of(&r, "short paths unweighted");
    let weighted = pct_of(&r, "short traffic weighted");
    assert!(
        weighted > unweighted + 20.0,
        "weighted {weighted} vs unweighted {unweighted}"
    );
}

#[test]
fn anycast_experiment_shows_user_route_gap() {
    let s = &setup().0;
    let r = experiments::anycast(s);
    let routes = pct_of(&r, "routes to closest");
    let users = pct_of(&r, "users to optimal");
    assert!(users >= routes, "users {users} vs routes {routes}");
}

#[test]
fn visibility_experiment_hides_peering() {
    let s = &setup().0;
    let r = experiments::visibility(s);
    let peering = pct_of(&r, "peering links invisible");
    let transit = pct_of(&r, "transit links invisible");
    assert!(peering > 50.0);
    assert!(transit < 30.0);
    assert!(peering > transit);
}

#[test]
fn pathpred_improves_with_cloud_vantage() {
    let s = &setup().0;
    let r = experiments::pathpred(s);
    let public = pct_of(&r, "exact on public view");
    let augmented = pct_of(&r, "exact on public+cloud");
    assert!(augmented >= public);
    assert!(public < 60.0, "public view should struggle, got {public}%");
}

#[test]
fn cachehost_flash_raises_hit_rate() {
    let s = &setup().0;
    let r = experiments::cachehost(s);
    let normal = pct_of(&r, "normal hit rate");
    let flash = pct_of(&r, "flash hit rate");
    let che = pct_of(&r, "Che prediction");
    assert!(flash > normal);
    assert!((normal - che).abs() < 10.0, "normal {normal} vs Che {che}");
}

#[test]
fn ablations_run_and_show_expected_directions() {
    let s = &setup().0;
    // D3: more collectors see more (invisible fraction shrinks).
    let d3 = ablations::ab_collectors(s);
    let few = pct_of(&d3, "2 feeders");
    let many = pct_of(&d3, "80 feeders");
    assert!(
        many <= few,
        "more feeders should reveal more: {few} -> {many}"
    );

    // D5: more probing rounds cover at least as much traffic.
    let d5 = ablations::ab_probe_budget(s);
    let lo = pct_of(&d5, "1 rounds/day");
    let hi = pct_of(&d5, "32 rounds/day");
    assert!(hi >= lo, "budget should help: {lo} -> {hi}");

    // D1: losing ECS scope explodes false discoveries.
    let d1 = ablations::ab_ecs_scope(s);
    let ecs_fdr = pct_of(&d1, "ECS false-discovery");
    let pop_fdr = pct_of(&d1, "PoP-wide false-discovery");
    assert!(pop_fdr > ecs_fdr, "pop {pop_fdr} vs ecs {ecs_fdr}");

    // D4: all variants produce rankings.
    let d4 = ablations::ab_recommend_features(s);
    assert_eq!(d4.csv_rows.len(), 7);
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// FNV-1a 64 of the fixture's `map_summary.json` and of every
/// experiment's and ablation's CSV, in `repro` run order. The CI `cmp`
/// steps compare one run against another of the same code; these pin the
/// bytes themselves, so a change that moves the substrate or an
/// experiment the same way at every thread count still shows. Re-record
/// them only for a deliberate change to the world or an experiment.
const GOLDEN_FNV: &[(&str, u64)] = &[
    ("map_summary", 0x577f_bbc8_0cf8_7a33),
    ("table1", 0x4983_24a6_121e_be6e),
    ("fig1a", 0x2a7f_4240_312f_a2ce),
    ("fig1b", 0x6834_f812_bc69_ad61),
    ("fig2", 0xba52_e3f9_e3bb_c160),
    ("coverage", 0x057c_a23e_e791_88db),
    ("ecs", 0x767d_6f44_2bc3_23c9),
    ("pathlen", 0x0ca4_2171_0a5c_643a),
    ("anycast", 0xdc56_bf52_1953_5d0c),
    ("pathpred", 0x8e5a_71df_a206_8613),
    ("recommend", 0xeef6_7ed5_f654_2262),
    ("ipid", 0xf0fe_c09e_c64c_bb34),
    ("visibility", 0x7b68_4cdb_55c0_7b24),
    ("consolidation", 0xd4d6_63fc_5c94_4f15),
    ("cachehost", 0x5197_0ca3_d18d_c815),
    ("assoc", 0xc099_2e6e_9f4a_4a7d),
    ("staleness", 0x97e6_61ac_fa1c_7332),
    ("ab_ecs_scope", 0xf71e_9dd1_3450_2a5a),
    ("ab_resolver_assumption", 0xacdd_6bf9_cd02_91b4),
    ("ab_collectors", 0xb816_c1e8_b95c_189d),
    ("ab_recommend_features", 0xf801_5c4a_36ee_6a34),
    ("ab_probe_budget", 0x6484_d08d_f1c5_2497),
];

#[test]
fn map_summary_and_every_csv_keep_their_golden_bytes() {
    let (s, map) = {
        let f = setup();
        (&f.0, &f.1)
    };
    let exec = ParallelExecutor::available();
    let summary = MapSummary::extract(s, map).to_json().expect("serializable");
    let mut got = vec![("map_summary", fnv1a(summary.as_bytes()))];
    let results = [
        experiments::table1(s, map),
        experiments::fig1a(s, map),
        experiments::fig1b(s, map),
        experiments::fig2(s, map),
        experiments::coverage_claims(s, map),
        experiments::ecs(s, map),
        experiments::pathlen(s),
        experiments::anycast(s),
        experiments::pathpred(s),
        experiments::recommend(s),
        experiments::ipid(s),
        experiments::visibility(s),
        experiments::consolidation(s),
        experiments::cachehost(s),
        experiments::assoc(s),
        experiments::staleness(s, &exec),
        ablations::ab_ecs_scope(s),
        ablations::ab_resolver_assumption(&SubstrateConfig::small(), s.seed, &exec),
        ablations::ab_collectors(s),
        ablations::ab_recommend_features(s),
        ablations::ab_probe_budget(s),
    ];
    got.extend(results.iter().map(|r| (r.id, fnv1a(r.csv().as_bytes()))));
    let table: String = got
        .iter()
        .map(|(id, h)| format!("    (\"{id}\", {h:#018x}),\n"))
        .collect();
    assert!(
        got == GOLDEN_FNV,
        "bytes moved; the hashes now read:\n{table}"
    );
}
