//! The epoch loop: deterministic substrate churn plus incremental map
//! rebuilds (the "continuously updated" map of the paper's abstract).
//!
//! An [`EpochPlan`] mutates the substrate between builds —
//! [`apply_epoch`] resolves its action indices against deterministic
//! eligibility lists and applies them in place — and reports a
//! [`DirtySet`]: the campaigns (and, for user mapping, the individual
//! services) those mutations invalidate. [`build_incremental`] then runs
//! the map's one build pipeline (the same one behind
//! [`TrafficMap::build_with`], which is this call with every campaign
//! dirty and no previous map): it recomputes exactly the dirty campaigns
//! and retains every clean component from the previous map, splicing
//! re-measured user-mapping services over the retained cell grid
//! segment-by-segment.
//!
//! The contract, asserted by `tests/epoch_incremental.rs` and the CI
//! `epoch` job: the incremental map is **byte-identical** (snapshot bytes
//! and [`map_fingerprint`]) to a from-scratch build of the mutated
//! substrate, at any thread count. The argument: every campaign is a pure
//! function of `(substrate, seeds, config, faults)` with its own seed
//! stream; epoch mutations draw from disjoint `"epoch"` child domains; so
//! a campaign whose substrate inputs did not change reproduces its
//! previous output exactly, and retaining it is indistinguishable from
//! recomputing it. The dirty model in [`itm_types::epoch`] records which
//! substrate inputs each mutation touches.
//!
//! One intentional divergence, in the trace (an observability stream, not
//! part of the map; snapshot bytes and the fingerprint do not cover it):
//! the incremental public view emits `RouteResolved` only for the
//! destinations it recomputes — those in the customer cones of the links
//! whose flap state changed (see [`itm_routing::flapped_cones`]), where a
//! full build emits one per AS — and the anycast stage only for the
//! catchments it recomputes, those with an origin in such a cone.
//!
//! Both kinds of build resolve each public-view tree only on the feeders'
//! upward closure and the destination's ancestors (DESIGN.md §15.4), so
//! those `RouteResolved` events say what was resolved ("1 origins,
//! resolved on 13 ancestors and a 137-AS upward closure") where a full
//! tree's say how many ASes it reaches; their subjects are unchanged.

use crate::map::{run_pipeline, MapConfig, TrafficMap};
use crate::snapshot::snapshot_bytes;
use crate::ParallelExecutor;
use itm_measure::Substrate;
use itm_topology::AsClass;
use itm_traffic::DeliveryMode;
use itm_types::epoch::{DirtySet, EpochAction, EpochBounds, EpochPlan};
use itm_types::{Asn, FaultStats, ItmError, Result, ServiceId};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// Eligibility lists: the deterministic orderings EpochAction indices
// resolve against. Each is a pure function of the substrate's static
// structure (AS classes, link table, catalogue), so the same action
// sequence resolves to the same entities in a replayed trajectory.
// ---------------------------------------------------------------------------

/// ASes eligible for resolver-adoption churn: eyeballs and stubs (the
/// networks that own user-access prefixes), ascending ASN.
pub fn resolver_sites(s: &Substrate) -> Vec<Asn> {
    s.topo
        .ases
        .iter()
        .filter(|a| matches!(a.class, AsClass::Eyeball | AsClass::Stub))
        .map(|a| a.asn)
        .collect()
}

/// Links eligible for flapping: peering links (transit stays up — a
/// flapped transit edge could partition the graph), in link-table order,
/// as canonical [`itm_topology::Link::key`] pairs.
pub fn flappable_links(s: &Substrate) -> Vec<(Asn, Asn)> {
    s.topo
        .links
        .iter()
        .filter(|l| l.is_peering())
        .map(|l| l.key())
        .collect()
}

/// Cloud ASes whose vantage VMs can churn, ascending ASN.
pub fn cloud_vm_sites(s: &Substrate) -> Vec<Asn> {
    let mut v = s.topo.clouds();
    v.sort_unstable();
    v
}

/// Services eligible for re-homing: the ECS DNS-redirection services (the
/// only ones the user-mapping campaign measures), catalogue order.
pub fn rehomeable_services(s: &Substrate) -> Vec<ServiceId> {
    s.catalog
        .services
        .iter()
        .filter(|svc| svc.ecs_support && svc.mode == DeliveryMode::DnsRedirection)
        .map(|svc| svc.id)
        .collect()
}

/// Generate and apply epoch `epoch`'s mutations in place, returning the
/// resolved action sequence and the dirty set it implies.
///
/// Deterministic in `(s.seeds, plan, epoch)` and independent of how many
/// earlier epochs were applied — action *generation* draws from an
/// epoch-indexed stream, and every mutation either toggles state or
/// re-draws it from an epoch-keyed domain. Replaying epochs `0..=k` on a
/// fresh substrate therefore reproduces the same world as having lived
/// through them, which is what lets the differential tests rebuild from
/// scratch mid-trajectory.
pub fn apply_epoch(
    s: &mut Substrate,
    plan: &EpochPlan,
    epoch: u32,
) -> (Vec<EpochAction>, DirtySet) {
    let sites = resolver_sites(s);
    let links = flappable_links(s);
    let vms = cloud_vm_sites(s);
    let services = rehomeable_services(s);
    let bounds = EpochBounds {
        n_resolver_sites: sites.len() as u32,
        n_flappable_links: links.len() as u32,
        n_cloud_vms: vms.len() as u32,
        n_ecs_services: services.len() as u32,
    };
    let actions = plan.actions(&s.seeds, epoch, &bounds);
    let dirty = DirtySet::from_actions(&actions, |i| services[i as usize]);

    let mut churned: BTreeSet<Asn> = BTreeSet::new();
    for a in &actions {
        match *a {
            EpochAction::ResolverChurn { site } => {
                churned.insert(sites[site as usize]);
            }
            EpochAction::LinkFlap { link } => {
                s.topo.toggle_link_down(links[link as usize]);
            }
            EpochAction::VmChurn { vm } => {
                let asn = vms[vm as usize];
                if !s.vm_down.remove(&asn) {
                    s.vm_down.insert(asn);
                }
            }
            EpochAction::Rehome { service, shift } => {
                s.frontends
                    .rehome_service(services[service as usize], shift);
            }
            EpochAction::DiurnalShift { millihours } => {
                s.traffic
                    .shift_diurnal_phase(f64::from(millihours) / 1000.0);
            }
        }
    }
    if !churned.is_empty() {
        // Adoption re-draws are keyed per prefix under an epoch-scoped
        // domain: independent of the churned-set iteration order, and a
        // different draw each epoch.
        let dom = s.seeds.child("epoch").child(&format!("churn-{epoch}"));
        s.resolvers.churn_adoption(&s.topo, &churned, &dom);
    }
    (actions, dirty)
}

/// Rebuild only the dirty campaigns of `prev` against the mutated
/// substrate, retaining everything else.
///
/// With the same `cfg` and executor as the original build, the result is
/// byte-identical to `TrafficMap::build_with(s, cfg, exec)` — see the
/// module docs for the argument and `tests/epoch_incremental.rs` for the
/// enforcement. Recorded under the `map.build_incremental` span, with the
/// same per-stage child spans as a full build.
pub fn build_incremental(
    s: &Substrate,
    cfg: &MapConfig,
    exec: &ParallelExecutor,
    prev: TrafficMap,
    dirty: &DirtySet,
) -> Result<TrafficMap> {
    if dirty.is_clean() {
        return Ok(prev);
    }
    let _span = itm_obs::span("map.build_incremental");
    run_pipeline(s, cfg, exec, Some(prev), dirty)
        .map_err(|e| ItmError::in_campaign("map.build_incremental", e))
}

// ---------------------------------------------------------------------------
// Fingerprinting: a deterministic digest over *every* map component, for
// cheap equality assertions between incremental and from-scratch builds.
// Snapshot bytes cover the serialized surface (cells, footprints, routes,
// claims); the digest folds in the components the snapshot omits.
// ---------------------------------------------------------------------------

/// FNV-1a folding over little-endian scalar encodings.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u32(1);
                self.f64(x);
            }
            None => self.u32(0),
        }
    }
    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0]);
    }
    fn stats(&mut self, st: &FaultStats) {
        self.u64(st.observed);
        self.u64(st.degraded);
        self.u64(st.lost);
        self.u64(st.retries);
    }
}

/// Digest every component of the map, snapshot-covered or not.
///
/// Two maps with equal fingerprints (against the same substrate) agree on
/// cells, footprints, routes, claims, activity estimates, catchments, raw
/// campaign outputs, and fault accounting — the equality the epoch
/// differential tests assert between incremental and full builds.
pub fn map_fingerprint(s: &Substrate, map: &TrafficMap) -> u64 {
    let mut h = Digest::new();
    h.bytes(&snapshot_bytes(s, map));

    h.u64(map.activity.len() as u64);
    for (asn, e) in map.activity.iter() {
        h.u32(asn.raw());
        h.opt_f64(e.cache_hit_rate);
        h.opt_f64(e.root_queries);
        h.opt_f64(e.apnic_users);
        h.f64(e.fused);
    }

    h.u64(map.catchments.len() as u64);
    for (svc, c) in &map.catchments {
        h.u32(svc.raw());
        for (asn, pop) in c.iter() {
            h.u32(asn.raw());
            h.u64(pop.index() as u64);
        }
    }

    for f in map.onnet_servers.iter().chain(&map.offnet_servers) {
        h.u32(f.hypergiant.raw());
        h.u32(f.host.raw());
        h.u32(f.addr.0);
        h.u32(f.city);
    }

    for p in &map.cache_result.discovered {
        h.u32(p.raw());
    }
    for (p, n) in &map.cache_result.hits_by_prefix {
        h.u32(p.raw());
        h.u32(*n);
    }
    h.u32(map.cache_result.probes_per_prefix);
    for (pop, n) in &map.cache_result.discovered_by_pop {
        h.u64(pop.index() as u64);
        h.u32(*n);
    }
    for d in &map.cache_result.domains {
        h.str(d);
    }
    h.stats(&map.cache_result.fault_stats);

    for (asn, q) in &map.root_result.queries_by_as {
        h.u32(asn.raw());
        h.f64(*q);
    }
    h.u64(map.root_result.unmapped_sources as u64);
    h.f64(map.root_result.usable_fraction);
    h.stats(&map.root_result.fault_stats);

    for &(a, b) in &map.cloud_result.links {
        h.u32(a.raw());
        h.u32(b.raw());
    }
    for asn in map
        .cloud_result
        .vantage
        .probes
        .iter()
        .chain(&map.cloud_result.vantage.cloud_vms)
    {
        h.u32(asn.raw());
    }
    h.stats(&map.cloud_result.fault_stats);

    for (label, total, vis) in &map.visibility.by_class {
        h.str(label);
        h.u64(*total as u64);
        h.u64(*vis as u64);
    }
    h.u64(map.visibility.total as u64);
    h.u64(map.visibility.visible as u64);

    for svc in &map.user_mapping.unmeasurable {
        h.u32(svc.raw());
    }
    for (svc, st) in &map.user_mapping.stats_by_service {
        h.u32(svc.raw());
        h.stats(st);
    }

    for (k, st) in &map.fault_report {
        h.str(k);
        h.stats(st);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use itm_measure::SubstrateConfig;
    use itm_types::epoch::Campaign;
    use itm_types::FaultPlan;

    fn substrate() -> Substrate {
        Substrate::build(SubstrateConfig::small(), 139).expect("substrate")
    }

    #[test]
    fn eligibility_lists_are_nonempty_and_stable() {
        let s = substrate();
        assert!(!resolver_sites(&s).is_empty());
        assert!(!flappable_links(&s).is_empty());
        assert!(!cloud_vm_sites(&s).is_empty());
        assert!(!rehomeable_services(&s).is_empty());
        assert_eq!(resolver_sites(&s), resolver_sites(&s));
        assert_eq!(flappable_links(&s), flappable_links(&s));
    }

    #[test]
    fn apply_epoch_is_deterministic_and_off_is_identity() {
        let mut a = substrate();
        let mut b = substrate();
        let (acts_a, dirty_a) = apply_epoch(&mut a, &EpochPlan::heavy(), 2);
        let (acts_b, dirty_b) = apply_epoch(&mut b, &EpochPlan::heavy(), 2);
        assert_eq!(acts_a, acts_b);
        assert_eq!(dirty_a, dirty_b);
        assert!(!acts_a.is_empty());
        assert_eq!(a.topo.links_down(), b.topo.links_down());
        assert_eq!(a.vm_down, b.vm_down);

        let mut c = substrate();
        let (acts, dirty) = apply_epoch(&mut c, &EpochPlan::off(), 0);
        assert!(acts.is_empty());
        assert!(dirty.is_clean());
        assert!(c.topo.links_down().is_empty());
    }

    #[test]
    fn incremental_build_matches_full_rebuild() {
        let cfg = MapConfig::default();
        let exec = ParallelExecutor::sequential();
        let mut s = substrate();
        let mut map = TrafficMap::build_with(&s, &cfg, &exec).expect("seed build");
        for epoch in 0..2u32 {
            let (_, dirty) = apply_epoch(&mut s, &EpochPlan::heavy(), epoch);
            map = build_incremental(&s, &cfg, &exec, map, &dirty).expect("incremental");
            let full = TrafficMap::build_with(&s, &cfg, &exec).expect("full rebuild");
            assert_eq!(
                snapshot_bytes(&s, &map),
                snapshot_bytes(&s, &full),
                "epoch {epoch}: incremental snapshot diverged"
            );
            assert_eq!(
                map_fingerprint(&s, &map),
                map_fingerprint(&s, &full),
                "epoch {epoch}: fingerprint diverged"
            );
        }
    }

    /// On an unchanged world every dirty set, retained or recomputed,
    /// reproduces the map — including the branches no epoch profile
    /// reaches (TLS/SNI, the whole ECS grid) and, under faults, the
    /// retained TLS/SNI fault-report entries.
    #[test]
    fn any_dirty_set_on_an_unchanged_world_reproduces_the_map() {
        let exec = ParallelExecutor::sequential();
        let s = substrate();
        let rehomed = rehomeable_services(&s)[0];
        // One normalized set per campaign (user mapping naming one
        // service, as a re-home does), then raw sets no epoch produces.
        let set = |c: Campaign, normalized: bool| {
            let mut d = DirtySet::clean();
            d.campaigns.insert(c);
            if normalized {
                if c == Campaign::UserMapping {
                    d.services.insert(rehomed);
                }
                d.normalize();
            }
            d
        };
        let mut sets: Vec<DirtySet> = Campaign::ALL.iter().map(|&c| set(c, true)).collect();
        sets.extend([
            set(Campaign::TlsScan, false),
            set(Campaign::SniScan, false),
            set(Campaign::UserMapping, false),
            DirtySet::all(),
            DirtySet::clean(),
        ]);
        for faults in [FaultPlan::off(), FaultPlan::light()] {
            let cfg = MapConfig {
                faults,
                ..MapConfig::default()
            };
            let mut map = TrafficMap::build_with(&s, &cfg, &exec).expect("build");
            let want = map_fingerprint(&s, &map);
            for dirty in &sets {
                map = build_incremental(&s, &cfg, &exec, map, dirty).expect("incremental");
                let why = (dirty.names(), cfg.faults.is_off());
                assert_eq!(map_fingerprint(&s, &map), want, "(set, faults off) {why:?}");
            }
        }
    }

    proptest::proptest! {
        // A case builds a world and four maps, so the default run takes
        // four; CI sets PROPTEST_CASES for a longer run.
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(
            std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(4)
        ))]
        /// On a world churned by a drawn heavy epoch, any raw subset of
        /// the campaigns rebuilds the map its normalized set does: the
        /// pipeline closes the set itself, so nothing derived from a
        /// recomputed campaign (the activity from a fresh cache probe,
        /// the cloud probe beside fresh routes) is kept stale.
        #[test]
        fn any_raw_dirty_set_after_heavy_churn_rebuilds_the_map_of_its_closure(
            epoch in 0u32..1000,
            bits in 0u16..(1 << Campaign::ALL.len()),
        ) {
            let cfg = MapConfig::default();
            let exec = ParallelExecutor::sequential();
            let mut s = substrate();
            let maps = [(); 2].map(|_| TrafficMap::build_with(&s, &cfg, &exec).expect("build"));
            apply_epoch(&mut s, &EpochPlan::heavy(), epoch);
            let mut raw = DirtySet::clean();
            for (i, &c) in Campaign::ALL.iter().enumerate() {
                if bits >> i & 1 == 1 {
                    raw.campaigns.insert(c);
                }
            }
            let mut closed = raw.clone();
            closed.normalize();
            let [a, b] = maps;
            let got = build_incremental(&s, &cfg, &exec, a, &raw).expect("raw");
            let want = build_incremental(&s, &cfg, &exec, b, &closed).expect("closed");
            proptest::prop_assert_eq!(
                map_fingerprint(&s, &got),
                map_fingerprint(&s, &want),
                "epoch {} raw {:?}",
                epoch,
                raw.names()
            );
        }
    }

    #[test]
    fn fingerprint_distinguishes_mutated_worlds() {
        let cfg = MapConfig::default();
        let exec = ParallelExecutor::sequential();
        let mut s = substrate();
        let map0 = TrafficMap::build_with(&s, &cfg, &exec).expect("build");
        let fp0 = map_fingerprint(&s, &map0);
        let (_, dirty) = apply_epoch(&mut s, &EpochPlan::heavy(), 0);
        assert!(!dirty.is_clean());
        let map1 = build_incremental(&s, &cfg, &exec, map0, &dirty).expect("incremental");
        assert_ne!(
            map_fingerprint(&s, &map1),
            fp0,
            "heavy churn left the map unchanged"
        );
    }
}
