//! The ECS grid's counters, in a binary of its own because the metrics
//! registry is process-wide.
//!
//! Every resolution the grid issues reaches the authoritative with an ECS
//! option, so with faults off `dns.auth.queries{ecs="true"}` must equal
//! `probe.queries{technique="ecs_mapping"}`. The grid resolves once per
//! run of prefixes that share an AS and a city; a kernel that counted a
//! run once instead of once per prefix would fall short here. Both the
//! bulk path (tracing off) and the per-prefix path (tracing on) are
//! checked.

use itm_measure::{Substrate, SubstrateConfig, UserMapping};

#[test]
fn ecs_authoritative_queries_equal_the_grids_queries() {
    let s = Substrate::build(SubstrateConfig::small(), 42).expect("small substrate");
    let resolver = s.open_resolver().expect("open resolver");
    itm_obs::set_enabled(true);
    let mut totals = Vec::new();
    for traced in [false, true] {
        itm_obs::trace::set_enabled(traced);
        itm_obs::reset();
        let m = UserMapping::measure(&s, &resolver);
        let report = itm_obs::snapshot();
        let queries = report.counter_with("probe.queries", &[("technique", "ecs_mapping")]);
        let auth = report.counter_with("dns.auth.queries", &[("ecs", "true")]);
        assert_eq!(queries, m.mapping.len() as u64, "traced: {traced}");
        assert_eq!(auth, queries, "traced: {traced}");
        totals.push(auth);
    }
    itm_obs::trace::set_enabled(false);
    itm_obs::set_enabled(false);
    assert!(totals[0] > 0);
    assert_eq!(totals[0], totals[1]);
}
