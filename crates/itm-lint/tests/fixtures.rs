//! Fixture-driven rule tests: each file under `tests/fixtures/` carries a
//! known set of violations; the assertions pin exact rule ids and line
//! numbers so a lexer or rule regression shows up as a diff here.

use itm_lint::{scan_source, FileClass, LintReport};
use std::fs;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// `(rule, line)` pairs of a scan, sorted.
fn hits(name: &str) -> (Vec<(String, u32)>, usize) {
    let src = fixture(name);
    let (findings, allows_used) = scan_source(&src, FileClass::Library, name);
    let mut pairs: Vec<(String, u32)> = findings.into_iter().map(|f| (f.rule, f.line)).collect();
    pairs.sort();
    (pairs, allows_used)
}

fn owned(pairs: &[(&str, u32)]) -> Vec<(String, u32)> {
    pairs.iter().map(|(r, l)| (r.to_string(), *l)).collect()
}

#[test]
fn d001_flags_wall_clock_but_not_in_tests() {
    let (pairs, _) = hits("d001.rs");
    assert_eq!(pairs, owned(&[("D001", 5), ("D001", 6)]));
}

#[test]
fn d002_flags_unseeded_randomness() {
    let (pairs, _) = hits("d002.rs");
    // line 2: the `thread_rng` import; line 5: the call; line 6: rand::random.
    assert_eq!(pairs, owned(&[("D002", 2), ("D002", 5), ("D002", 6)]));
}

#[test]
fn d003_flags_only_serialized_unordered_fields() {
    let (pairs, _) = hits("d003.rs");
    assert_eq!(pairs, owned(&[("D003", 7), ("D003", 8)]));
}

#[test]
fn d004_flags_thread_spawns_in_library_code() {
    let (pairs, _) = hits("d004.rs");
    assert_eq!(pairs, owned(&[("D004", 5), ("D004", 6), ("D004", 7)]));
}

#[test]
fn d004_is_silent_in_registered_executor_files() {
    let src = fixture("d004.rs");
    let (findings, _) = scan_source(&src, FileClass::Library, "crates/itm-obs/src/exec.rs");
    assert!(
        findings.is_empty(),
        "the registered executor may spawn threads: {findings:?}"
    );
}

#[test]
fn d004_does_not_apply_to_harness_code() {
    let src = fixture("d004.rs");
    let (findings, _) = scan_source(&src, FileClass::Harness, "d004.rs");
    assert!(
        findings.is_empty(),
        "test/bench code may spawn threads: {findings:?}"
    );
}

#[test]
fn d005_flags_raw_allocator_access() {
    let (pairs, _) = hits("d005.rs");
    // line 2: the std::alloc import; 6: the GlobalAlloc impl; 8/11: direct
    // std::alloc calls; 15: the #[global_allocator] attribute.
    assert_eq!(
        pairs,
        owned(&[
            ("D005", 2),
            ("D005", 6),
            ("D005", 8),
            ("D005", 11),
            ("D005", 15),
        ])
    );
}

#[test]
fn d005_is_silent_in_the_registered_wrapper_file() {
    let src = fixture("d005.rs");
    let (findings, _) = scan_source(&src, FileClass::Library, "crates/itm-obs/src/alloc.rs");
    assert!(
        findings.is_empty(),
        "the tracking wrapper may touch the raw allocator: {findings:?}"
    );
}

#[test]
fn d005_does_not_apply_to_harness_code() {
    let src = fixture("d005.rs");
    let (findings, _) = scan_source(&src, FileClass::Harness, "d005.rs");
    assert!(
        findings.is_empty(),
        "binaries/benches/tests install the global allocator: {findings:?}"
    );
}

#[test]
fn p001_flags_panics_not_prose_or_tests() {
    let (pairs, _) = hits("p001.rs");
    assert_eq!(pairs, owned(&[("P001", 3), ("P001", 4), ("P001", 6)]));
}

#[test]
fn f001_flags_float_equality_only() {
    let (pairs, _) = hits("f001.rs");
    assert_eq!(pairs, owned(&[("F001", 3), ("F001", 6)]));
}

#[test]
fn valid_allows_suppress_and_are_counted() {
    let (pairs, allows_used) = hits("allow_ok.rs");
    assert_eq!(pairs, owned(&[]));
    assert_eq!(allows_used, 2);
}

#[test]
fn malformed_allows_are_findings_and_do_not_suppress() {
    let (pairs, allows_used) = hits("allow_bad.rs");
    assert_eq!(
        pairs,
        owned(&[("A001", 3), ("A001", 8), ("P001", 4), ("P001", 9)])
    );
    assert_eq!(allows_used, 0);
}

#[test]
fn unused_allows_are_flagged() {
    let (pairs, allows_used) = hits("allow_unused.rs");
    assert_eq!(pairs, owned(&[("A002", 3)]));
    assert_eq!(allows_used, 0);
}

#[test]
fn harness_class_skips_panic_and_clock_rules() {
    let src = fixture("d001.rs");
    let (findings, _) = scan_source(&src, FileClass::Harness, "d001.rs");
    assert!(findings.is_empty(), "harness files may read the clock");
    let src = fixture("p001.rs");
    let (findings, _) = scan_source(&src, FileClass::Harness, "p001.rs");
    assert!(findings.is_empty(), "harness files may panic");
    // …but unseeded randomness is never fine.
    let src = fixture("d002.rs");
    let (findings, _) = scan_source(&src, FileClass::Harness, "d002.rs");
    assert_eq!(findings.len(), 3);
}

#[test]
fn json_report_round_trips_through_the_shim() {
    let mut all = Vec::new();
    for name in ["d001.rs", "d003.rs", "p001.rs", "allow_bad.rs"] {
        let (findings, _) = scan_source(&fixture(name), FileClass::Library, name);
        all.extend(findings);
    }
    assert!(!all.is_empty());
    let report = LintReport::new(4, 0, all);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let back: LintReport = serde_json::from_str(&json).expect("report parses");
    assert_eq!(back, report);
    // Deterministic: serializing again is byte-identical.
    let json2 = serde_json::to_string_pretty(&back).expect("report serializes");
    assert_eq!(json, json2);
}

#[test]
fn m001_flags_owned_copies_only_in_campaign_loops() {
    let (pairs, _) = hits("m001.rs");
    // 6/7: clone + to_string in the shard loop. Line 16 (non-campaign fn)
    // and line 23 (merge fn, but outside a loop) stay silent.
    assert_eq!(pairs, owned(&[("M001", 6), ("M001", 7)]));
}

#[test]
fn m002_flags_string_keys_only_on_hot_structs() {
    let (pairs, _) = hits("m002.rs");
    // 6: BTreeMap<String, …>; 7: BTreeSet<Vec<String>>. The u32-keyed
    // field (8) and the cold struct (12) stay silent.
    assert_eq!(pairs, owned(&[("M002", 6), ("M002", 7)]));
}

#[test]
fn m003_flags_sorts_only_on_merge_paths() {
    let (pairs, _) = hits("m003.rs");
    assert_eq!(pairs, owned(&[("M003", 5)]));
}

#[test]
fn m004_flags_shard_loop_allocation_except_trace_gated() {
    let (pairs, _) = hits("m004.rs");
    // 6: format!; 7: vec!; 8: String::from. Line 11 is trace-gated and
    // line 20 sits in a non-shard fn.
    assert_eq!(pairs, owned(&[("M004", 6), ("M004", 7), ("M004", 8)]));
}

#[test]
fn c001_flags_shared_mutable_capture_in_executor_args() {
    let (pairs, _) = hits("c001.rs");
    // 6: .lock() in exec.map args; 11: &mut capture; 19: .lock() in a
    // run_with argument. The pure closure (15) stays silent.
    assert_eq!(pairs, owned(&[("C001", 6), ("C001", 11), ("C001", 19)]));
}

#[test]
fn c001_is_silent_in_the_registered_executor_file() {
    let src = fixture("c001.rs");
    let (findings, _) = scan_source(&src, FileClass::Library, "crates/itm-obs/src/exec.rs");
    assert!(
        findings.is_empty(),
        "the executor owns its shared work-queue state: {findings:?}"
    );
}

#[test]
fn c002_flags_hash_iteration_only_on_campaign_or_serialized_flows() {
    let (pairs, _) = hits("c002.rs");
    // 11: HashMap iteration in a merge fn. The BTreeMap merge (22) and
    // the unserialized helper (31) stay silent.
    assert_eq!(pairs, owned(&[("C002", 11)]));
}

#[test]
fn scale_rules_do_not_apply_to_harness_or_shim_code() {
    for name in [
        "m001.rs", "m002.rs", "m003.rs", "m004.rs", "c001.rs", "c002.rs",
    ] {
        for class in [FileClass::Harness, FileClass::Shim] {
            let (findings, _) = scan_source(&fixture(name), class, name);
            assert!(
                findings.is_empty(),
                "{name} under {class:?} should be exempt: {findings:?}"
            );
        }
    }
}

#[test]
fn l001_flags_upward_crate_references_in_a_fixture_workspace() {
    let root = format!("{}/tests/fixtures/l001_ws", env!("CARGO_MANIFEST_DIR"));
    let report = itm_lint::scan_workspace(std::path::Path::new(&root)).expect("fixture scan");
    assert_eq!(report.files_scanned, 2);
    let pairs: Vec<(String, String, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule.clone(), f.file.clone(), f.line))
        .collect();
    assert_eq!(
        pairs,
        vec![(
            "L001".to_string(),
            "crates/itm-types/src/lib.rs".to_string(),
            4
        )]
    );
}

#[test]
fn u001_flags_pub_items_nothing_uses_in_a_fixture_workspace() {
    let root = format!("{}/tests/fixtures/u001_ws", env!("CARGO_MANIFEST_DIR"));
    let report = itm_lint::scan_workspace(std::path::Path::new(&root)).expect("fixture scan");
    assert_eq!(report.files_scanned, 4);
    let types = "crates/itm-types/src/lib.rs";
    let pairs: Vec<(&str, &str, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule.as_str(), f.file.as_str(), f.line))
        .collect();
    // Flagged: 6, named only in a `pub use`; 9, named nowhere; 11, used
    // only by its own test module; 25, an allow without a reason (A001)
    // suppresses nothing. 27: an allow with nothing to suppress (A002).
    // Not flagged: a use from itm-core (17, 28), a non-test use in the
    // same file (15), `pub(crate)` (21), a reasoned allow (23), and the
    // harness and shim files' own `pub` items.
    assert_eq!(
        pairs,
        vec![
            ("U001", types, 6),
            ("U001", types, 9),
            ("U001", types, 11),
            ("A001", types, 25),
            ("U001", types, 25),
            ("A002", types, 27),
        ]
    );
    assert_eq!(report.allows_used, 1);
}

#[test]
fn u001_needs_the_workspace_so_single_file_scans_skip_it() {
    let src = fs::read_to_string(format!(
        "{}/tests/fixtures/u001_ws/crates/itm-types/src/lib.rs",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("fixture");
    let (findings, _) = scan_source(&src, FileClass::Library, "crates/itm-types/src/lib.rs");
    assert!(findings.iter().all(|f| f.rule != "U001"), "{findings:?}");
}

#[test]
fn single_file_scans_judge_no_u001_allow() {
    // U001 does not run on one file, so its allows are neither unused
    // (no A002 at 23 or 27) nor in use (the count stays 0); the
    // reason-less allow at 25 is still A001.
    let src = fs::read_to_string(format!(
        "{}/tests/fixtures/u001_ws/crates/itm-types/src/lib.rs",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("fixture");
    let (findings, allows_used) =
        scan_source(&src, FileClass::Library, "crates/itm-types/src/lib.rs");
    let pairs: Vec<(&str, u32)> = findings.iter().map(|f| (f.rule.as_str(), f.line)).collect();
    assert_eq!(pairs, vec![("A001", 25)]);
    assert_eq!(allows_used, 0);
}

#[test]
fn allow_of_one_rule_does_not_absorb_findings_of_another() {
    // Satellite: a `// itm-lint: allow(R1)` followed by findings of a
    // *different* rule on the covered line must keep those findings AND
    // still report A002 for the unused allow.
    let (pairs, allows_used) = hits("allow_multi.rs");
    // P001@7 survives the mismatched allow(D001); P001@13 is suppressed
    // by its matching allow(P001); the two non-matching allows are A002.
    assert_eq!(pairs, owned(&[("A002", 6), ("A002", 12), ("P001", 7)]));
    // Only the matching P001 allow is in use.
    assert_eq!(allows_used, 1);
}

#[test]
fn findings_are_sorted_deterministically() {
    let (findings, _) = scan_source(&fixture("d001.rs"), FileClass::Library, "d001.rs");
    let report = LintReport::new(1, 0, findings);
    let keys: Vec<(String, u32)> = report
        .findings
        .iter()
        .map(|f| (f.file.clone(), f.line))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
    assert_eq!(report.by_rule.get("D001"), Some(&2));
}
