//! The one plan loader behind `--faults` and `--epoch-plan`: profile name
//! → file → JSON → `validate()`, and the field reader both plans share
//! (absent fields are zero, counts saturate to their field's width).

use itm_bench::plan::{from_json, load};
use itm_types::{EpochPlan, FaultPlan};
use std::path::PathBuf;

/// A plan file unique to this test process holding `text`.
fn plan_file(name: &str, text: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("plan-loader-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn an_empty_object_is_the_off_plan_for_both_kinds() {
    assert_eq!(from_json::<FaultPlan>("{}").unwrap(), FaultPlan::off());
    assert_eq!(from_json::<EpochPlan>("{}").unwrap(), EpochPlan::off());
}

#[test]
fn fields_are_read_by_name_and_absent_ones_stay_zero() {
    let f: FaultPlan =
        from_json(r#"{"loss": 0.25, "max_retries": 3, "backoff_cap_secs": 9}"#).unwrap();
    let want = FaultPlan {
        loss: 0.25,
        max_retries: 3,
        backoff_cap_secs: 9,
        ..FaultPlan::off()
    };
    assert_eq!(f, want);

    // Integers are numbers too, for rates and hour shifts alike.
    let e: EpochPlan = from_json(r#"{"diurnal_shift_hours": 2, "rehome_services": 1}"#).unwrap();
    let want = EpochPlan {
        diurnal_shift_hours: 2.0,
        rehome_services: 1,
        ..EpochPlan::off()
    };
    assert_eq!(e, want);
}

#[test]
fn counts_saturate_to_their_field_width() {
    let big = u64::MAX;
    let f: FaultPlan = from_json(&format!(
        r#"{{"max_retries": {big}, "backoff_base_secs": {big}}}"#
    ))
    .unwrap();
    assert_eq!(f.max_retries, u32::MAX);
    assert_eq!(f.backoff_base_secs, u64::MAX);
    let e: EpochPlan =
        from_json(r#"{"link_flaps": 5000000000, "rehome_services": 4294967296}"#).unwrap();
    assert_eq!((e.link_flaps, e.rehome_services), (u32::MAX, u32::MAX));
}

#[test]
fn wrong_shapes_name_the_plan_and_the_field() {
    let err = |r: Result<FaultPlan, serde_json::Error>| r.unwrap_err().to_string();
    assert!(err(from_json("[]")).contains("fault plan: expected a JSON object"));
    assert!(err(from_json(r#"{"loss": "high"}"#)).contains("fault plan: loss must be a number"));
    assert!(err(from_json(r#"{"max_retries": -1}"#))
        .contains("fault plan: max_retries must be a non-negative integer"));
    assert!(err(from_json(r#"{"max_retries": 1.5}"#)).contains("must be a non-negative integer"));
    let e = from_json::<EpochPlan>(r#"{"link_flaps": true}"#).unwrap_err();
    assert!(
        e.to_string()
            .contains("epoch plan: link_flaps must be a non-negative integer"),
        "{e}"
    );
    assert!(from_json::<EpochPlan>("7")
        .unwrap_err()
        .to_string()
        .contains("epoch plan: expected a JSON object"));
}

#[test]
fn load_resolves_profiles_then_files_and_keeps_each_message() {
    assert_eq!(
        load::<FaultPlan>("--faults", "light").unwrap(),
        FaultPlan::light()
    );
    assert_eq!(
        load::<EpochPlan>("--epoch-plan", "heavy").unwrap(),
        EpochPlan::heavy()
    );

    let err = load::<FaultPlan>("--faults", "").unwrap_err();
    assert_eq!(err, "--faults expects off|light|heavy|FILE");
    let err = load::<EpochPlan>("--epoch-plan", "bogus").unwrap_err();
    assert!(
        err.starts_with("--epoch-plan: \"bogus\" is neither a profile"),
        "{err}"
    );

    let garbled = plan_file("garbled.json", "{ not json");
    let raw = garbled.to_str().unwrap();
    let err = load::<FaultPlan>("--faults", raw).unwrap_err();
    assert!(
        err.starts_with(&format!("--faults: cannot parse plan file {raw}")),
        "{err}"
    );

    let invalid = plan_file("invalid.json", r#"{"resolver_churn": 2.0}"#);
    let raw = invalid.to_str().unwrap();
    let err = load::<EpochPlan>("--epoch-plan", raw).unwrap_err();
    assert!(
        err.starts_with(&format!("--epoch-plan: invalid plan in {raw}")),
        "{err}"
    );

    let partial = plan_file("partial.json", r#"{"link_flaps": 4}"#);
    let plan = load::<EpochPlan>("--epoch-plan", partial.to_str().unwrap()).unwrap();
    assert_eq!(plan.link_flaps, 4);
}

#[test]
fn deeply_nested_plan_files_fail_to_parse() {
    for (name, open) in [("brackets.json", "["), ("objects.json", "{\"a\":")] {
        let file = plan_file(name, &open.repeat(100_000));
        let err = load::<FaultPlan>("--faults", file.to_str().unwrap()).unwrap_err();
        assert!(err.contains("cannot parse plan file"), "{err}");
        assert!(err.contains("recursion limit"), "{err}");
    }
}
