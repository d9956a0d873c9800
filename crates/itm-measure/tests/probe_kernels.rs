//! The probe kernels against the string APIs they sit under.
//!
//! Cache probing calls `OpenResolver::probe_hoisted*` with per-prefix,
//! per-domain and per-window terms it hoisted out of its loops, and the
//! ECS grid calls `resolve_prefix*` with prefix records and pre-resolved
//! domains; the experiments call `probe`, `probe_with_faults`,
//! `resolve_for_client*` and `AuthoritativeDns::resolve`, which look the
//! names up and then call the same kernels. These tests pin that the two
//! paths answer alike — probe by probe on the small substrate under the
//! off, light and heavy fault plans, and campaign by campaign against
//! reference loops written over the string API alone. The cache-probe
//! reference evaluates the diurnal curve on every probe, so it checks the
//! campaign's per-city diurnal table as well as its kernels, and it must
//! count the same `dns.*` and `faults.probe.*` series and trace the same
//! probe events as the campaign. The ECS-grid reference resolves every
//! cell on its own, so it checks the grid's per-run answers, under random
//! re-homings of the front-end directory as well.
//!
//! The counter and trace comparisons switch the process-wide metrics
//! registry and trace log on, so every test here holds one lock
//! ([`exclusive`]) and none counts or traces while another looks.

use itm_dns::{AuthoritativeDns, DnsTally, DomainKey, HoistedAnswer, OpenResolver};
use itm_measure::{CacheProbeCampaign, Substrate, SubstrateConfig, UserMapping};
use itm_obs::trace::{EventKind, Subjects};
use itm_topology::PrefixKind;
use itm_traffic::DeliveryMode;
use itm_types::rng::{shard_bounds, stable_hash};
use itm_types::{
    Cell, FaultInjector, FaultPlan, FaultStats, Ipv4Addr, PrefixId, ProbeFate, ServiceId,
    SimDuration, SimTime,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The lock every test of this binary holds for its whole run.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A test that failed while holding it leaves nothing to repair: the
    // next one resets what it reads.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn substrate() -> &'static Substrate {
    static S: OnceLock<Substrate> = OnceLock::new();
    S.get_or_init(|| Substrate::build(SubstrateConfig::small(), 42).expect("small substrate"))
}

/// The small world again, its diurnal peak moved by a heavy epoch's
/// shift: every prefix's multiplier differs from the first world's.
fn shifted_substrate() -> &'static Substrate {
    static S: OnceLock<Substrate> = OnceLock::new();
    S.get_or_init(|| {
        let mut s = Substrate::build(SubstrateConfig::small(), 42).expect("small substrate");
        s.traffic
            .shift_diurnal_phase(itm_types::EpochPlan::heavy().diurnal_shift_hours);
        s
    })
}

fn plans() -> [(&'static str, FaultPlan); 3] {
    [
        ("off", FaultPlan::off()),
        ("light", FaultPlan::light()),
        ("heavy", FaultPlan::heavy()),
    ]
}

fn sequential<T>(n: usize, job: &(dyn Fn(usize) -> T + Sync)) -> Vec<T> {
    (0..n).map(job).collect()
}

proptest! {
    #[test]
    fn kernels_answer_like_the_string_wrappers(
        prefix in 0usize..1_000_000,
        service in 0usize..1_000_000,
        secs in 0u64..3 * 86_400,
        round in 0u64..8,
    ) {
        let _obs = exclusive();
        let s = substrate();
        let resolver = s.open_resolver().expect("open resolver");
        let auth = AuthoritativeDns::new(&s.topo, &s.catalog, &s.frontends);
        let rec = s.topo.prefixes.get(PrefixId((prefix % s.topo.prefixes.len()) as u32));
        let ecs: Vec<_> = s.catalog.services.iter().filter(|svc| svc.ecs_support).collect();
        let svc = ecs[service % ecs.len()];
        let dom = DomainKey::of(svc);
        let t = SimTime(secs);
        // The terms a campaign hoists: the domain's, its window at `t`,
        // the prefix's, and the rate from the pair's daily demand and the
        // city's window diurnal factor.
        let d = resolver.hoist_domain(dom);
        let w = d.window(t);
        let p = resolver.hoist_prefix(rec);
        let daily = resolver.daily_demand(rec.id, svc.id);
        let rate = resolver.ecs_rate(&p, daily, resolver.window_diurnal(rec.city, dom, t));
        let mut tally = DnsTally::default();

        prop_assert_eq!(resolver.domain_key(&svc.domain), Some(dom));
        let probe = resolver.probe(rec.net, &svc.domain, t);
        prop_assert_eq!(resolver.probe_prefix(rec, dom, t, &mut tally), probe);
        prop_assert_eq!(resolver.probe_hoisted(&p, &d, w, rate, &mut tally), probe);
        let city = resolver.pops()[resolver.pop_of(rec.id).index()].city;
        prop_assert_eq!(
            auth.resolve_record(svc.id, city, Some(rec), None, &mut tally),
            auth.resolve(svc.id, city, Some(rec.net))
        );
        let resolved = resolver.resolve_for_client(rec.id, &svc.domain).expect("known domain");
        // The grid hoists the front-end of a DNS-redirected service.
        let answer = (svc.mode == DeliveryMode::DnsRedirection)
            .then_some(HoistedAnswer { addr: resolved.addr });
        for h in [None, answer] {
            prop_assert_eq!(resolver.resolve_prefix(rec, dom, h, &mut tally), resolved);
        }
        for (name, plan) in plans() {
            let faults = FaultInjector::new(plan, &s.seeds, "kernels");
            let probed = resolver.probe_with_faults(rec.net, &svc.domain, t, &faults, round);
            // The fate keys, byte for byte: (network address, domain hash,
            // round) for a probe; (prefix id, domain hash, 0) for the
            // resolver hop of a resolution, then the authoritative's
            // refusal draw keyed by the prefix id.
            let key_b = stable_hash(&svc.domain);
            prop_assert_eq!(probed.1, faults.fate(rec.net.addr(0).0 as u64, key_b, round));
            let hop = faults.fate(rec.id.raw() as u64, key_b, 0);
            let fate = match hop {
                ProbeFate::Lost => ProbeFate::Lost,
                _ => hop.combine(faults.refusal_fate(svc.id.raw() as u64, rec.id.raw() as u64, city as u64)),
            };
            prop_assert_eq!(
                resolver.resolve_for_client_with_faults(rec.id, &svc.domain, &faults).1,
                fate
            );
            prop_assert_eq!(
                resolver.probe_hoisted_with_faults(&p, &d, w, rate, &faults, round, &mut tally),
                probed,
                "probe, {} faults", name
            );
            for h in [None, answer] {
                prop_assert_eq!(
                    resolver.resolve_prefix_with_faults(rec, dom, h, &faults, &mut tally),
                    resolver.resolve_for_client_with_faults(rec.id, &svc.domain, &faults),
                    "resolution, {} faults", name
                );
            }
        }
        // Every kernel probe was a lookup that either hit or missed.
        prop_assert_eq!(tally.cache_lookups_ecs, tally.cache_hit + tally.cache_miss);
        prop_assert_eq!(tally.cache_lookups_pop + tally.cache_nxdomain, 0);
    }
}

/// What one run counted and traced: the nonzero `dns.*` and
/// `faults.probe.*` counters, and the cache-probe events (kind, subjects,
/// detail) in emission order, empty when untraced.
#[derive(Debug, PartialEq)]
struct Observed {
    counters: BTreeMap<String, u64>,
    events: Vec<(EventKind, Subjects, String)>,
}

/// Run `f` with metrics on, and tracing on when `traced`, from a reset
/// registry and log; both are off again afterwards.
fn observe<T>(traced: bool, f: impl FnOnce() -> T) -> (T, Observed) {
    itm_obs::set_enabled(true);
    itm_obs::trace::set_enabled(traced);
    itm_obs::reset();
    itm_obs::trace::reset();
    let out = f();
    let report = itm_obs::snapshot();
    let trace = itm_obs::trace::snapshot();
    itm_obs::trace::set_enabled(false);
    itm_obs::set_enabled(false);
    assert_eq!(trace.dropped_events, 0, "the trace ring overflowed");
    let counters = report
        .counters
        .into_iter()
        .filter(|(name, v)| {
            *v > 0 && (name.starts_with("dns.") || name.starts_with("faults.probe."))
        })
        .collect();
    let probe_kinds = [
        EventKind::CacheHit,
        EventKind::CacheMiss,
        EventKind::ProbeRetried,
        EventKind::ProbeFailed,
    ];
    let events = trace
        .records
        .into_iter()
        .filter(|r| probe_kinds.contains(&r.kind))
        .map(|r| (r.kind, r.subjects, r.detail))
        .collect();
    (out, Observed { counters, events })
}

/// What a cache-probing campaign measures, from a loop over
/// `probe_with_faults` in the campaign's sweep order: each shard's slice
/// of the prefix table in shard order, and in a slice (round, prefix,
/// domain). Each probe looks its prefix and domain up by name and
/// computes its daily demand and diurnal factor afresh.
fn reference_cache_probe(
    c: &CacheProbeCampaign,
    s: &Substrate,
    resolver: &OpenResolver<'_>,
    faults: &FaultInjector,
) -> (BTreeSet<PrefixId>, BTreeMap<PrefixId, u32>, FaultStats) {
    let rounds = (c.duration.as_secs() as f64 / 86_400.0 * c.rounds_per_day as f64)
        .round()
        .max(1.0) as u64;
    let step = c.duration.as_secs() / rounds;
    let mut discovered = BTreeSet::new();
    let mut hits: BTreeMap<PrefixId, u32> = BTreeMap::new();
    let mut stats = FaultStats::default();
    let n_shards = c.shard_count(s);
    for shard in 0..n_shards {
        let (lo, hi) = shard_bounds(s.topo.prefixes.len(), shard, n_shards);
        for round in 0..rounds {
            let t = SimTime(c.start.as_secs() + round * step);
            for rec in s.topo.prefixes.iter().skip(lo).take(hi - lo) {
                for d in c.pick_domains(s) {
                    let (res, fate) = resolver.probe_with_faults(rec.net, &d, t, faults, round);
                    stats.record(fate);
                    if let Some(itm_dns::ProbeResult::Hit(_)) = res {
                        discovered.insert(rec.id);
                        *hits.entry(rec.id).or_insert(0) += 1;
                    }
                }
            }
        }
    }
    (discovered, hits, stats)
}

/// The default campaign against the string-API loop on the small world
/// and its phase-shifted copy, under every fault plan, traced: the same
/// discoveries, hit counts and fates, the same counters, and the same
/// probe events in the same order.
#[test]
fn cache_probe_campaign_equals_the_string_api_loop() {
    let _obs = exclusive();
    let c = CacheProbeCampaign::default();
    for (world, s) in [substrate(), shifted_substrate()].into_iter().enumerate() {
        let resolver = s.open_resolver().expect("open resolver");
        for (name, plan) in plans() {
            let what = format!("world {world}, {name} faults");
            let faults = FaultInjector::new(plan, &s.seeds, "cache_probe");
            let (got, seen) = observe(true, || {
                c.run_with_faults(s, &resolver, &faults, sequential)
            });
            let ((discovered, hits, stats), want) =
                observe(true, || reference_cache_probe(&c, s, &resolver, &faults));
            assert!(!discovered.is_empty(), "{what}: nothing discovered");
            assert_eq!(got.discovered, discovered, "{what}");
            assert_eq!(got.hits_by_prefix, hits, "{what}");
            assert_eq!(got.fault_stats, stats, "{what}");
            assert!(seen.counters.contains_key("dns.cache.hit"), "{what}");
            assert_eq!(seen.counters, want.counters, "{what}");
            let issued = stats.observed + stats.degraded + stats.lost;
            assert!(seen.events.len() as u64 >= issued, "{what}");
            assert!(
                seen.events == want.events,
                "{what}: the probe events differ"
            );
        }
    }
}

/// Cases for the campaign oracle: `PROPTEST_CASES` when set, else a few,
/// since each case runs the string-API reference over the whole world.
fn campaign_cases() -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6);
    ProptestConfig::with_cases(cases)
}

/// A campaign with any cadence from 1 to 24 rounds a day, 1 h to 3 days
/// long, starting off every TTL boundary (the catalogue's TTLs are all
/// multiples of 30 s), probing from none to every ECS domain.
fn arb_campaign() -> impl Strategy<Value = CacheProbeCampaign> {
    (
        1u32..=24,
        3_600u64..=3 * 86_400,
        0u64..2_880,
        1u64..30,
        0usize..=64,
    )
        .prop_map(
            |(rounds_per_day, secs, start_slot, start_offset, n_domains)| CacheProbeCampaign {
                n_domains,
                rounds_per_day,
                duration: SimDuration::secs(secs),
                start: SimTime(start_slot * 30 + start_offset),
            },
        )
}

proptest! {
    #![proptest_config(campaign_cases())]

    #[test]
    fn random_campaigns_equal_the_string_api_loop(
        c in arb_campaign(),
        world in 0usize..2,
        plan in 0usize..3,
    ) {
        let _obs = exclusive();
        let s = [substrate(), shifted_substrate()][world];
        let n_ecs = s.catalog.services.iter().filter(|svc| svc.ecs_support).count();
        // Up to every ECS domain, and sometimes more than there are.
        let c = CacheProbeCampaign { n_domains: c.n_domains % (n_ecs + 2), ..c };
        let ttls: BTreeSet<u64> = s.catalog.services.iter().map(|svc| u64::from(svc.ttl_secs)).collect();
        prop_assert!(
            ttls.iter().all(|&ttl| !c.start.as_secs().is_multiple_of(ttl)),
            "aligned start {:?}",
            c.start
        );
        let resolver = s.open_resolver().expect("open resolver");
        let (name, plan) = plans()[plan].clone();
        let faults = FaultInjector::new(plan, &s.seeds, "cache_probe");
        let (got, seen) = observe(false, || c.run_with_faults(s, &resolver, &faults, sequential));
        let ((discovered, hits, stats), want) =
            observe(false, || reference_cache_probe(&c, s, &resolver, &faults));
        let what = format!("{c:?} on world {world} under {name} faults");
        prop_assert_eq!(&got.discovered, &discovered, "{}", what);
        prop_assert_eq!(&got.hits_by_prefix, &hits, "{}", what);
        prop_assert_eq!(&got.fault_stats, &stats, "{}", what);
        prop_assert_eq!(&seen.counters, &want.counters, "{}", what);
        prop_assert_eq!(got.domains.len(), c.n_domains.min(n_ecs), "{}", what);
    }
}

#[test]
fn the_shifted_world_probes_differently() {
    let _obs = exclusive();
    let (a, b) = (substrate(), shifted_substrate());
    let c = CacheProbeCampaign::default();
    let ra = c.run(a, &a.open_resolver().expect("open resolver"));
    let rb = c.run(b, &b.open_resolver().expect("open resolver"));
    assert_ne!(ra.hits_by_prefix, rb.hits_by_prefix);
}

/// What the ECS grid measures for `services`, from a loop over
/// `resolve_for_client_with_faults`: cells in (service, prefix) order,
/// sorted footprints, and per-service fate accounting.
#[allow(clippy::type_complexity)]
fn reference_grid(
    s: &Substrate,
    resolver: &OpenResolver<'_>,
    faults: &FaultInjector,
    services: &[ServiceId],
) -> (
    Vec<Cell>,
    BTreeMap<ServiceId, Vec<Ipv4Addr>>,
    BTreeMap<ServiceId, FaultStats>,
) {
    let mut cells = Vec::new();
    let mut footprint = BTreeMap::new();
    let mut stats = BTreeMap::new();
    for &sid in services {
        let svc = s.catalog.get(sid);
        let mut addrs = BTreeSet::new();
        let st: &mut FaultStats = stats.entry(sid).or_default();
        for rec in s.topo.prefixes.iter() {
            if rec.kind != PrefixKind::UserAccess {
                continue;
            }
            let (ans, fate) = resolver.resolve_for_client_with_faults(rec.id, &svc.domain, faults);
            st.record(fate);
            if let Some(ans) = ans {
                cells.push(Cell {
                    service: sid,
                    prefix: rec.id,
                    addr: ans.addr,
                });
                addrs.insert(ans.addr);
            }
        }
        footprint.insert(sid, addrs.into_iter().collect());
    }
    (cells, footprint, stats)
}

#[test]
fn ecs_grid_equals_the_string_api_loop() {
    let _obs = exclusive();
    let s = substrate();
    let resolver = s.open_resolver().expect("open resolver");
    let measurable: Vec<ServiceId> = s
        .catalog
        .services
        .iter()
        .filter(|svc| svc.ecs_support && svc.mode == DeliveryMode::DnsRedirection)
        .map(|svc| svc.id)
        .collect();
    // The epoch engine's subset re-measure runs the same shard kernel.
    let subset: BTreeSet<ServiceId> = [measurable[1], measurable[measurable.len() / 2]].into();
    for (name, plan) in plans() {
        let faults = FaultInjector::new(plan, &s.seeds, "user_mapping");
        let got = UserMapping::measure_with_faults(s, &resolver, &faults, sequential);
        let (cells, footprint, stats) = reference_grid(s, &resolver, &faults, &measurable);
        assert!(!cells.is_empty(), "{name}: no cells");
        assert_eq!(
            got.mapping.iter().copied().collect::<Vec<_>>(),
            cells,
            "{name}"
        );
        assert_eq!(got.footprint, footprint, "{name} faults");
        assert_eq!(got.stats_by_service, stats, "{name} faults");
        let mut total = FaultStats::default();
        for st in stats.values() {
            total.merge(st);
        }
        assert_eq!(got.fault_stats, total, "{name} faults");

        let part =
            UserMapping::measure_subset_with_faults(s, &resolver, &subset, &faults, sequential);
        let ids: Vec<ServiceId> = subset.iter().copied().collect();
        let (cells, footprint, stats) = reference_grid(s, &resolver, &faults, &ids);
        assert_eq!(
            part.mapping.iter().copied().collect::<Vec<_>>(),
            cells,
            "{name}"
        );
        assert_eq!(part.footprint, footprint, "{name} faults");
        assert_eq!(part.stats_by_service, stats, "{name} faults");
    }
}

/// The DNS-redirected ECS services: the ones the grid measures.
fn measurable(s: &Substrate) -> Vec<ServiceId> {
    s.catalog
        .services
        .iter()
        .filter(|svc| svc.ecs_support && svc.mode == DeliveryMode::DnsRedirection)
        .map(|svc| svc.id)
        .collect()
}

proptest! {
    #![proptest_config(campaign_cases())]

    /// The grid resolves once per run of prefixes that share an AS and a
    /// city; re-homing services moves which front-end each run gets, and
    /// the grid must still equal the cell-by-cell reference, for the full
    /// campaign and for any subset, under every fault plan.
    #[test]
    fn the_run_kernel_equals_the_cell_by_cell_grid(
        shifts in proptest::collection::vec((any::<usize>(), 1u32..8), 0..6),
        subset_bits in any::<u64>(),
        full in any::<bool>(),
        plan in 0usize..3,
    ) {
        let _obs = exclusive();
        let s = substrate();
        let ids = measurable(s);
        let mut frontends = s.frontends.clone();
        for &(k, shift) in &shifts {
            frontends.rehome_service(ids[k % ids.len()], shift);
        }
        let resolver = OpenResolver::deploy(
            &s.topo,
            &s.users,
            &s.catalog,
            &s.traffic,
            &s.resolvers,
            AuthoritativeDns::new(&s.topo, &s.catalog, &frontends),
            s.config.open_resolver.clone(),
            &s.seeds,
        )
        .expect("open resolver");
        let (name, plan) = plans()[plan].clone();
        let faults = FaultInjector::new(plan, &s.seeds, "user_mapping");
        let subset: BTreeSet<ServiceId> = ids
            .iter()
            .enumerate()
            .filter(|&(i, _)| subset_bits >> (i % 64) & 1 == 1)
            .map(|(_, &id)| id)
            .collect();
        let (got, services): (UserMapping, Vec<ServiceId>) = if full {
            (UserMapping::measure_with_faults(s, &resolver, &faults, sequential), ids.clone())
        } else {
            (
                UserMapping::measure_subset_with_faults(s, &resolver, &subset, &faults, sequential),
                subset.iter().copied().collect(),
            )
        };
        let (cells, footprint, stats) = reference_grid(s, &resolver, &faults, &services);
        let what = format!("shifts {shifts:?}, {} services, {name} faults", services.len());
        prop_assert_eq!(got.mapping.iter().copied().collect::<Vec<_>>(), cells, "{}", &what);
        prop_assert_eq!(&got.footprint, &footprint, "{}", &what);
        prop_assert_eq!(&got.stats_by_service, &stats, "{}", &what);
    }
}
